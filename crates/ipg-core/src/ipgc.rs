//! Persisted compiled grammars: the `.ipgc` artifact format.
//!
//! Everything downstream of [`crate::bytecode::compile`] — the flat
//! [`Program`] pools, the [`AnchorRequirement`] streaming classification,
//! the [`SizeHints`] pre-sizing — is a pure function of the grammar
//! source and the blackbox declarations it was checked against. This
//! module makes that function's output an explicit *build artifact*: a
//! versioned, self-describing binary file written by `ipg compile -o`
//! and loaded by path (`ipg disasm`, `ipg verify`, the serve watcher).
//! Ordinary loads do not go through it: [`CachedProgram::compile`]
//! compiles a spec in memory, which is faster than decoding an artifact
//! because decoding must re-check the embedded source anyway.
//!
//! ## Artifact layout
//!
//! All integers are little-endian.
//!
//! ```text
//! offset  size  field
//!      0     4  magic  b"IPGC"
//!      4     4  format version (u32) — see [`FORMAT_VERSION`]
//!      8     8  source hash (u64)   — see [`source_hash`]
//!     16     8  payload length (u64)
//!     24     8  payload hash (u64)  — FNV-1a over the payload bytes
//!     32     …  payload
//!      …    33+ provenance trailer (format v2+, see below)
//! ```
//!
//! The payload carries, length-prefixed and in order: the embedded `.ipg`
//! source, the interner's symbol table (pinning [`Sym`] assignment), the
//! start [`NtId`], the rule/alternative/instruction/expression/case/
//! literal pools of the [`Program`], the nonterminal name table, the
//! anchor classification, and the size hints.
//!
//! ## Provenance trailer (v2+)
//!
//! Format v2 appends a trailer after the payload:
//!
//! ```text
//! offset (from payload end)  size  field
//!                         0    32  SHA-256 digest of the payload
//!                        32     1  flag: 0 = unsigned, 1 = signed
//!                        33    32  (if signed) HMAC-SHA-256 over every
//!                                  preceding byte of the file, keyed by
//!                                  `IPG_ARTIFACT_KEY`
//! ```
//!
//! The digest makes corruption of a stored artifact cryptographically
//! evident (FNV is a checksum, not a collision-resistant hash); the
//! optional MAC makes artifacts from a shared or untrusted directory
//! tamper-evident: with a key configured, loaders refuse unsigned or
//! wrongly-signed artifacts with a provenance error. See [`verify`] for
//! the staged check and `docs/ipgc-spec.md` for the normative layout.
//!
//! ## Versioning policy
//!
//! [`FORMAT_VERSION`] is bumped on **any** change to the payload encoding
//! or to the bytecode semantics it transports (new [`Instr`]/[`BExpr`]
//! variants, changed operand widths, …). Loaders decode any version in
//! `MIN_FORMAT_VERSION..=FORMAT_VERSION` (v1 artifacts simply have no
//! trailer); newer or unknown versions fail with a typed
//! [`Error::Artifact`]. The source hash input includes the format
//! version, so artifacts from different toolchain versions never share a
//! source hash.
//!
//! ## Integrity
//!
//! Loading is total: corrupt, truncated, or version-skewed bytes produce
//! a typed [`Error::Artifact`], never a panic. The payload hash catches
//! bit-level corruption; a structural validation pass re-checks every
//! cross-pool index against the decoded pool sizes; and
//! [`Artifact::reconstruct_grammar`] verifies the artifact against the
//! grammar re-checked from the embedded source (symbol-for-symbol, so
//! [`Sym`]/[`NtId`] identity across save/load is *checked*, not assumed).

use crate::analysis::{anchor_requirement, AnchorRequirement};
use crate::arena::NtTable;
use crate::blackbox::Blackbox;
use crate::bytecode::{
    compile, BExpr, ExprId, Instr, LitSpan, PAlt, PCase, PRule, PRuleKind, Program, SizeHints,
};
use crate::check::{Grammar, NtId};
use crate::error::{Error, Result};
use crate::intern::Sym;
use crate::interp::vm::VmParser;
use crate::sha256::{ct_eq32, hmac_sha256, sha256};
use crate::syntax::{BinOp, Builtin};
use std::sync::Arc;

/// The artifact magic bytes.
pub const MAGIC: [u8; 4] = *b"IPGC";

/// Current artifact format version. Bump on any encoding or bytecode
/// change; loaders reject newer versions with [`Error::Artifact`].
pub const FORMAT_VERSION: u32 = 2;

/// Oldest format version this loader still decodes. v1 files are v2
/// files without the provenance trailer.
pub const MIN_FORMAT_VERSION: u32 = 1;

/// Size of the fixed header preceding the payload.
pub const HEADER_LEN: usize = 32;

/// Length of the SHA-256 payload digest in the v2 trailer.
pub const DIGEST_LEN: usize = 32;

/// Length of the HMAC-SHA-256 tag in a signed v2 trailer.
pub const MAC_LEN: usize = 32;

/// Minimum v2 trailer size: digest plus the signature flag byte.
pub const TRAILER_MIN: usize = DIGEST_LEN + 1;

/// Trailer flag: artifact carries no MAC.
const FLAG_UNSIGNED: u8 = 0;
/// Trailer flag: a keyed MAC follows.
const FLAG_SIGNED: u8 = 1;

/// The artifact signing key from `IPG_ARTIFACT_KEY`, if configured. The
/// variable's raw bytes are the HMAC key.
pub fn artifact_key_from_env() -> Option<Vec<u8>> {
    let key = std::env::var_os("IPG_ARTIFACT_KEY")?;
    let bytes = key.as_encoded_bytes().to_vec();
    if bytes.is_empty() {
        return None;
    }
    Some(bytes)
}

// ---------------------------------------------------------------------------
// Hashing (FNV-1a, 64-bit): no dependency, stable across platforms.
// ---------------------------------------------------------------------------

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// Streaming FNV-1a hasher used for both the source hash and the payload
/// checksum.
#[derive(Clone, Copy, Debug)]
pub struct Fnv1a(u64);

impl Fnv1a {
    /// A fresh hasher at the FNV offset basis.
    pub fn new() -> Self {
        Fnv1a(FNV_OFFSET)
    }

    /// Absorbs `bytes`.
    pub fn update(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(FNV_PRIME);
        }
    }

    /// The current digest.
    pub fn finish(&self) -> u64 {
        self.0
    }
}

impl Default for Fnv1a {
    fn default() -> Self {
        Fnv1a::new()
    }
}

/// Hashes raw bytes (the payload checksum).
pub fn hash_bytes(bytes: &[u8]) -> u64 {
    let mut h = Fnv1a::new();
    h.update(bytes);
    h.finish()
}

/// The artifact's source hash: a digest of everything the compiled
/// program is a function of — the format version, the grammar source,
/// and the blackbox declarations (name and attribute list; the
/// *implementations* are runtime-bound and do not affect compilation).
pub fn source_hash(spec: &str, blackboxes: &[Blackbox]) -> u64 {
    source_hash_v(FORMAT_VERSION, spec, blackboxes)
}

/// [`source_hash`] for an explicit format version. Validating an older
/// artifact must recompute the key with the version *it* was written at,
/// or every v1 file would spuriously fail the source-hash check.
pub fn source_hash_v(version: u32, spec: &str, blackboxes: &[Blackbox]) -> u64 {
    let mut h = Fnv1a::new();
    h.update(&version.to_le_bytes());
    h.update(&(spec.len() as u64).to_le_bytes());
    h.update(spec.as_bytes());
    h.update(&(blackboxes.len() as u64).to_le_bytes());
    for bb in blackboxes {
        h.update(&(bb.name.len() as u64).to_le_bytes());
        h.update(bb.name.as_bytes());
        h.update(&(bb.attrs.len() as u64).to_le_bytes());
        for a in &bb.attrs {
            h.update(&(a.len() as u64).to_le_bytes());
            h.update(a.as_bytes());
        }
    }
    h.finish()
}

// ---------------------------------------------------------------------------
// Byte-level writer / reader
// ---------------------------------------------------------------------------

struct Writer {
    buf: Vec<u8>,
}

impl Writer {
    fn new() -> Self {
        Writer { buf: Vec::with_capacity(4096) }
    }
    fn u8(&mut self, v: u8) {
        self.buf.push(v);
    }
    fn u16(&mut self, v: u16) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }
    fn u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }
    fn u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }
    fn i64(&mut self, v: i64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }
    fn bytes(&mut self, v: &[u8]) {
        self.u64(v.len() as u64);
        self.buf.extend_from_slice(v);
    }
    fn str(&mut self, v: &str) {
        self.bytes(v.as_bytes());
    }
}

struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    fn new(buf: &'a [u8]) -> Self {
        Reader { buf, pos: 0 }
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8]> {
        let end =
            self.pos.checked_add(n).filter(|&e| e <= self.buf.len()).ok_or_else(|| {
                Error::Artifact(format!("truncated payload at offset {}", self.pos))
            })?;
        let s = &self.buf[self.pos..end];
        self.pos = end;
        Ok(s)
    }

    fn u8(&mut self) -> Result<u8> {
        Ok(self.take(1)?[0])
    }
    fn u16(&mut self) -> Result<u16> {
        Ok(u16::from_le_bytes(self.take(2)?.try_into().unwrap()))
    }
    fn u32(&mut self) -> Result<u32> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().unwrap()))
    }
    fn u64(&mut self) -> Result<u64> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }
    fn i64(&mut self) -> Result<i64> {
        Ok(i64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }

    /// A length-prefixed count, sanity-bounded so corrupt lengths fail
    /// cleanly instead of attempting a multi-gigabyte allocation.
    fn count(&mut self, what: &str) -> Result<usize> {
        let n = self.u64()?;
        let remaining = (self.buf.len() - self.pos) as u64;
        // Every counted element occupies at least one payload byte.
        if n > remaining {
            return Err(Error::Artifact(format!("implausible {what} count {n}")));
        }
        Ok(n as usize)
    }

    fn bytes(&mut self) -> Result<&'a [u8]> {
        let n = self.count("byte-run")?;
        self.take(n)
    }

    fn str(&mut self) -> Result<String> {
        let raw = self.bytes()?;
        String::from_utf8(raw.to_vec())
            .map_err(|_| Error::Artifact("non-UTF-8 string in payload".into()))
    }

    fn done(&self) -> Result<()> {
        if self.pos != self.buf.len() {
            return Err(Error::Artifact(format!(
                "{} trailing bytes after payload",
                self.buf.len() - self.pos
            )));
        }
        Ok(())
    }
}

// ---------------------------------------------------------------------------
// Enum tags
// ---------------------------------------------------------------------------

fn builtin_tag(b: Builtin) -> u8 {
    match b {
        Builtin::U8 => 0,
        Builtin::U16Le => 1,
        Builtin::U16Be => 2,
        Builtin::U32Le => 3,
        Builtin::U32Be => 4,
        Builtin::U64Le => 5,
        Builtin::U64Be => 6,
        Builtin::AsciiInt => 7,
        Builtin::Bytes => 8,
    }
}

fn builtin_of(tag: u8) -> Result<Builtin> {
    Ok(match tag {
        0 => Builtin::U8,
        1 => Builtin::U16Le,
        2 => Builtin::U16Be,
        3 => Builtin::U32Le,
        4 => Builtin::U32Be,
        5 => Builtin::U64Le,
        6 => Builtin::U64Be,
        7 => Builtin::AsciiInt,
        8 => Builtin::Bytes,
        other => return Err(Error::Artifact(format!("unknown builtin tag {other}"))),
    })
}

fn binop_tag(op: BinOp) -> u8 {
    match op {
        BinOp::Add => 0,
        BinOp::Sub => 1,
        BinOp::Mul => 2,
        BinOp::Div => 3,
        BinOp::Mod => 4,
        BinOp::Eq => 5,
        BinOp::Ne => 6,
        BinOp::Lt => 7,
        BinOp::Gt => 8,
        BinOp::Le => 9,
        BinOp::Ge => 10,
        BinOp::And => 11,
        BinOp::Or => 12,
        BinOp::Shl => 13,
        BinOp::Shr => 14,
        BinOp::BitAnd => 15,
        BinOp::BitOr => 16,
    }
}

fn binop_of(tag: u8) -> Result<BinOp> {
    Ok(match tag {
        0 => BinOp::Add,
        1 => BinOp::Sub,
        2 => BinOp::Mul,
        3 => BinOp::Div,
        4 => BinOp::Mod,
        5 => BinOp::Eq,
        6 => BinOp::Ne,
        7 => BinOp::Lt,
        8 => BinOp::Gt,
        9 => BinOp::Le,
        10 => BinOp::Ge,
        11 => BinOp::And,
        12 => BinOp::Or,
        13 => BinOp::Shl,
        14 => BinOp::Shr,
        15 => BinOp::BitAnd,
        16 => BinOp::BitOr,
        other => return Err(Error::Artifact(format!("unknown binop tag {other}"))),
    })
}

// ---------------------------------------------------------------------------
// Encoding
// ---------------------------------------------------------------------------

/// Serializes a compiled grammar into `.ipgc` artifact bytes.
///
/// `spec` must be the exact source `grammar` was checked from: the loader
/// reconstructs the [`Grammar`] from it and cross-checks the program's
/// symbol and nonterminal tables against the result.
pub fn encode(
    spec: &str,
    grammar: &Grammar,
    program: &Program,
    anchor: AnchorRequirement,
    hints: SizeHints,
) -> Vec<u8> {
    let mut w = Writer::new();

    // 1. Embedded source.
    w.str(spec);

    // 2. Symbol table, in Sym order: pins Sym assignment across save/load.
    let interner = grammar.interner();
    w.u64(interner.len() as u64);
    for i in 0..interner.len() {
        w.str(interner.resolve(Sym(i as u32)));
    }

    // 3. Start nonterminal.
    w.u32(program.start.0);

    // 4. Rules.
    w.u64(program.rules.len() as u64);
    for rule in &program.rules {
        match rule.kind {
            PRuleKind::Alts { first, count } => {
                w.u8(0);
                w.u32(first);
                w.u32(count);
            }
            PRuleKind::Builtin(b) => {
                w.u8(1);
                w.u8(builtin_tag(b));
            }
            PRuleKind::Blackbox(idx) => {
                w.u8(2);
                w.u32(idx);
            }
        }
        w.u8(rule.is_local as u8);
    }

    // 5. Alternatives.
    w.u64(program.alts.len() as u64);
    for alt in &program.alts {
        w.u32(alt.first);
        w.u32(alt.count);
        w.u16(alt.n_slots);
    }

    // 6. Instructions.
    w.u64(program.code.len() as u64);
    for instr in &program.code {
        match *instr {
            Instr::Match { lit, lo, hi, slot } => {
                w.u8(0);
                w.u32(lit.start);
                w.u32(lit.len);
                w.u32(lo.0);
                w.u32(hi.0);
                w.u16(slot);
            }
            Instr::Call { nt, lo, hi, slot } => {
                w.u8(1);
                w.u32(nt.0);
                w.u32(lo.0);
                w.u32(hi.0);
                w.u16(slot);
            }
            Instr::Set { attr, expr } => {
                w.u8(2);
                w.u32(attr.0);
                w.u32(expr.0);
            }
            Instr::Guard { expr } => {
                w.u8(3);
                w.u32(expr.0);
            }
            Instr::Loop { var, from, to, nt, lo, hi, slot } => {
                w.u8(4);
                w.u32(var.0);
                w.u32(from.0);
                w.u32(to.0);
                w.u32(nt.0);
                w.u32(lo.0);
                w.u32(hi.0);
                w.u16(slot);
            }
            Instr::Star { nt, lo, hi, slot } => {
                w.u8(5);
                w.u32(nt.0);
                w.u32(lo.0);
                w.u32(hi.0);
                w.u16(slot);
            }
            Instr::Switch { first, count, slot } => {
                w.u8(6);
                w.u32(first);
                w.u16(count);
                w.u16(slot);
            }
        }
    }

    // 7. Expressions.
    w.u64(program.exprs.len() as u64);
    for expr in &program.exprs {
        match *expr {
            BExpr::Num(n) => {
                w.u8(0);
                w.i64(n);
            }
            BExpr::Bin(op, a, b) => {
                w.u8(1);
                w.u8(binop_tag(op));
                w.u32(a.0);
                w.u32(b.0);
            }
            BExpr::Cond(c, t, f) => {
                w.u8(2);
                w.u32(c.0);
                w.u32(t.0);
                w.u32(f.0);
            }
            BExpr::Eoi => w.u8(3),
            BExpr::Local(sym) => {
                w.u8(4);
                w.u32(sym.0);
            }
            BExpr::NtAttr { slot, nt, attr } => {
                w.u8(5);
                w.u16(slot);
                w.u32(nt.0);
                w.u32(attr.0);
            }
            BExpr::ElemAttr { slot, nt, index, attr } => {
                w.u8(6);
                w.u16(slot);
                w.u32(nt.0);
                w.u32(index.0);
                w.u32(attr.0);
            }
            BExpr::OuterAttr { nt, attr } => {
                w.u8(7);
                w.u32(nt.0);
                w.u32(attr.0);
            }
            BExpr::OuterElem { nt, index, attr } => {
                w.u8(8);
                w.u32(nt.0);
                w.u32(index.0);
                w.u32(attr.0);
            }
            BExpr::Exists { var, slot, nt, cond, then, els } => {
                w.u8(9);
                w.u32(var.0);
                match slot {
                    Some(s) => {
                        w.u8(1);
                        w.u16(s);
                    }
                    None => w.u8(0),
                }
                w.u32(nt.0);
                w.u32(cond.0);
                w.u32(then.0);
                w.u32(els.0);
            }
        }
    }

    // 8. Switch cases.
    w.u64(program.cases.len() as u64);
    for case in &program.cases {
        match case.cond {
            Some(c) => {
                w.u8(1);
                w.u32(c.0);
            }
            None => w.u8(0),
        }
        w.u32(case.nt.0);
        w.u32(case.lo.0);
        w.u32(case.hi.0);
    }

    // 9. Literal pool.
    w.bytes(&program.lits);

    // 10. Nonterminal name table.
    w.u64(program.nt_table.names.len() as u64);
    for (name, sym) in program.nt_table.names.iter().zip(&program.nt_table.syms) {
        w.str(name);
        w.u32(sym.0);
    }

    // 11. Anchor classification.
    match anchor {
        AnchorRequirement::Prefix => w.u8(0),
        AnchorRequirement::Suffix { k } => {
            w.u8(1);
            w.u64(k as u64);
        }
        AnchorRequirement::FullLength => w.u8(2),
    }

    // 12. Size hints.
    w.u64(hints.frames as u64);
    w.u64(hints.nodes as u64);
    w.u64(hints.leaves as u64);
    w.u64(hints.children as u64);
    w.u64(hints.shifts as u64);

    let payload = w.buf;
    assemble(spec, grammar, payload, None)
}

/// [`encode`], appending a keyed MAC to the provenance trailer so loaders
/// configured with the same key (via `IPG_ARTIFACT_KEY`) accept the
/// artifact from an untrusted directory.
pub fn encode_signed(
    spec: &str,
    grammar: &Grammar,
    program: &Program,
    anchor: AnchorRequirement,
    hints: SizeHints,
    key: &[u8],
) -> Vec<u8> {
    let unsigned = encode(spec, grammar, program, anchor, hints);
    sign_bytes(unsigned, key)
}

/// Assembles header + payload + v2 provenance trailer.
fn assemble(spec: &str, grammar: &Grammar, payload: Vec<u8>, key: Option<&[u8]>) -> Vec<u8> {
    let mut out = Vec::with_capacity(HEADER_LEN + payload.len() + TRAILER_MIN + MAC_LEN);
    out.extend_from_slice(&MAGIC);
    out.extend_from_slice(&FORMAT_VERSION.to_le_bytes());
    out.extend_from_slice(&source_hash(spec, grammar.blackboxes()).to_le_bytes());
    out.extend_from_slice(&(payload.len() as u64).to_le_bytes());
    out.extend_from_slice(&hash_bytes(&payload).to_le_bytes());
    out.extend_from_slice(&payload);
    out.extend_from_slice(&sha256(&payload));
    out.push(FLAG_UNSIGNED);
    match key {
        Some(k) => sign_bytes(out, k),
        None => out,
    }
}

/// Converts unsigned artifact bytes into signed ones: flips the trailer
/// flag and appends an HMAC over every preceding byte.
fn sign_bytes(mut bytes: Vec<u8>, key: &[u8]) -> Vec<u8> {
    debug_assert_eq!(bytes.last(), Some(&FLAG_UNSIGNED));
    let flag_at = bytes.len() - 1;
    bytes[flag_at] = FLAG_SIGNED;
    let mac = hmac_sha256(key, &bytes);
    bytes.extend_from_slice(&mac);
    bytes
}

/// Convenience: compile `grammar` and encode the result in one step.
pub fn encode_grammar(spec: &str, grammar: &Grammar) -> Vec<u8> {
    let program = compile(grammar);
    let hints = program.size_hints();
    let anchor = anchor_requirement(grammar);
    encode(spec, grammar, &program, anchor, hints)
}

// ---------------------------------------------------------------------------
// Decoding
// ---------------------------------------------------------------------------

/// Why an artifact failed verification, staged so callers (and the
/// `ipg verify` exit code) can distinguish *what kind* of failure it was:
/// a damaged file, a toolchain mismatch, a provenance violation, or a
/// grammar disagreement.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum VerifyError {
    /// The bytes are not a well-formed artifact: bad magic, truncation,
    /// checksum mismatch, or an out-of-range index in the payload.
    Structural(String),
    /// The artifact's format version is outside the supported range.
    VersionSkew {
        /// The version recorded in the artifact header.
        found: u32,
        /// The oldest version this loader decodes.
        oldest: u32,
        /// The newest version this loader decodes.
        newest: u32,
    },
    /// The provenance trailer rejected the file: payload digest mismatch,
    /// missing signature under a configured key, or a failed MAC check.
    Provenance(String),
    /// The artifact is internally sound but disagrees with the grammar
    /// reconstructed from its embedded source.
    Mismatch(String),
}

impl std::fmt::Display for VerifyError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            VerifyError::Structural(m) => write!(f, "{m}"),
            VerifyError::VersionSkew { found, oldest, newest } => write!(
                f,
                "format version skew: artifact v{found}, loader supports v{oldest}..v{newest}"
            ),
            VerifyError::Provenance(m) => write!(f, "provenance: {m}"),
            VerifyError::Mismatch(m) => write!(f, "{m}"),
        }
    }
}

impl From<VerifyError> for Error {
    fn from(e: VerifyError) -> Error {
        Error::Artifact(e.to_string())
    }
}

/// The header/trailer fields of a validated artifact envelope, with the
/// payload located but not yet decoded.
struct RawParts<'a> {
    version: u32,
    source_hash: u64,
    payload: &'a [u8],
    signed: bool,
    mac_checked: bool,
}

/// Validates the artifact envelope: header, length, checksums, and the
/// v2 provenance trailer (digest always; MAC when `key` is configured).
/// Classifies failures per [`VerifyError`].
fn split<'a>(
    bytes: &'a [u8],
    key: Option<&[u8]>,
) -> std::result::Result<RawParts<'a>, VerifyError> {
    let structural = |m: String| Err(VerifyError::Structural(m));
    if bytes.len() < HEADER_LEN {
        return structural(format!(
            "file too short for header: {} bytes, need {HEADER_LEN}",
            bytes.len()
        ));
    }
    if bytes[..4] != MAGIC {
        return structural("bad magic (not an .ipgc artifact)".into());
    }
    let version = u32::from_le_bytes(bytes[4..8].try_into().unwrap());
    if !(MIN_FORMAT_VERSION..=FORMAT_VERSION).contains(&version) {
        return Err(VerifyError::VersionSkew {
            found: version,
            oldest: MIN_FORMAT_VERSION,
            newest: FORMAT_VERSION,
        });
    }
    let source_hash = u64::from_le_bytes(bytes[8..16].try_into().unwrap());
    let payload_len = u64::from_le_bytes(bytes[16..24].try_into().unwrap());
    let payload_hash = u64::from_le_bytes(bytes[24..32].try_into().unwrap());
    let rest = &bytes[HEADER_LEN..];

    let (payload, signed, mac_checked);
    if version == 1 {
        // v1: the payload runs to end-of-file, no trailer.
        if rest.len() as u64 != payload_len {
            return structural(format!(
                "payload length mismatch: header says {payload_len}, file has {}",
                rest.len()
            ));
        }
        payload = rest;
        signed = false;
        mac_checked = false;
        if key.is_some() {
            return Err(VerifyError::Provenance(
                "signing key configured but v1 artifact carries no provenance trailer".into(),
            ));
        }
    } else {
        let room = rest.len().checked_sub(TRAILER_MIN);
        let plen = usize::try_from(payload_len).ok().filter(|&p| Some(p) <= room);
        let Some(plen) = plen else {
            return structural(format!(
                "payload length mismatch: header says {payload_len}, {} bytes follow the header \
                 (trailer needs {TRAILER_MIN})",
                rest.len()
            ));
        };
        payload = &rest[..plen];
        let digest: &[u8; 32] = rest[plen..plen + DIGEST_LEN].try_into().unwrap();
        let flag = rest[plen + DIGEST_LEN];
        let trailer_end = match flag {
            FLAG_UNSIGNED => plen + TRAILER_MIN,
            FLAG_SIGNED => plen + TRAILER_MIN + MAC_LEN,
            other => return structural(format!("unknown trailer flag {other}")),
        };
        if rest.len() != trailer_end {
            return structural(format!(
                "file length mismatch: {} bytes after header, trailer ends at {trailer_end}",
                rest.len()
            ));
        }
        signed = flag == FLAG_SIGNED;
        if !ct_eq32(&sha256(payload), digest) {
            return Err(VerifyError::Provenance(
                "payload digest mismatch (corrupt or tampered artifact)".into(),
            ));
        }
        match (signed, key) {
            (true, Some(k)) => {
                let mac_start = HEADER_LEN + plen + TRAILER_MIN;
                let mac: &[u8; 32] = bytes[mac_start..mac_start + MAC_LEN].try_into().unwrap();
                if !ct_eq32(&hmac_sha256(k, &bytes[..mac_start]), mac) {
                    return Err(VerifyError::Provenance(
                        "MAC verification failed (wrong key or tampered artifact)".into(),
                    ));
                }
                mac_checked = true;
            }
            (false, Some(_)) => {
                return Err(VerifyError::Provenance(
                    "signing key configured but artifact is unsigned".into(),
                ));
            }
            (_, None) => mac_checked = false,
        }
    }
    if hash_bytes(payload) != payload_hash {
        return structural("payload checksum mismatch (corrupt artifact)".into());
    }
    Ok(RawParts { version, source_hash, payload, signed, mac_checked })
}

/// A decoded `.ipgc` artifact: the program and its precomputed analyses,
/// plus the embedded source and symbol table needed to rebind it to a
/// [`Grammar`].
#[derive(Debug)]
pub struct Artifact {
    /// The format version the artifact was written at.
    pub version: u32,
    /// The embedded `.ipg` source the program was compiled from.
    pub spec: String,
    /// The deserialized bytecode program.
    pub program: Program,
    /// The persisted streaming classification.
    pub anchor: AnchorRequirement,
    /// The persisted VM pre-sizing hints.
    pub hints: SizeHints,
    /// The source hash recorded in the header.
    pub source_hash: u64,
    /// The interner's symbol table at compile time, in [`Sym`] order.
    pub symbols: Vec<String>,
}

/// Decodes and structurally validates artifact bytes, honoring
/// `IPG_ARTIFACT_KEY` for the provenance policy (see
/// [`decode_with_key`]).
///
/// # Errors
///
/// [`Error::Artifact`] on bad magic, version skew, truncation, checksum
/// or provenance mismatch, or any out-of-range cross-pool index. Never
/// panics.
pub fn decode(bytes: &[u8]) -> Result<Artifact> {
    decode_with_key(bytes, artifact_key_from_env().as_deref())
}

/// [`decode`] with an explicit provenance policy. With `key` set, the
/// artifact must be v2+, signed, and carry a valid MAC — unsigned or v1
/// files are rejected with a provenance error (the serve watcher then
/// quarantines them). Without a key, signatures are ignored and only the
/// digest/checksum integrity checks apply.
pub fn decode_with_key(bytes: &[u8], key: Option<&[u8]>) -> Result<Artifact> {
    let parts = split(bytes, key)?;
    decode_parts(parts)
}

/// Decodes the located payload into an [`Artifact`].
fn decode_parts(parts: RawParts<'_>) -> Result<Artifact> {
    let RawParts { version, source_hash, payload, .. } = parts;
    let mut r = Reader::new(payload);

    // 1. Source.
    let spec = r.str()?;

    // 2. Symbol table.
    let n_syms = r.count("symbol")?;
    let mut symbols = Vec::with_capacity(n_syms);
    for _ in 0..n_syms {
        symbols.push(r.str()?);
    }

    // 3. Start nonterminal.
    let start = NtId(r.u32()?);

    // 4. Rules.
    let n_rules = r.count("rule")?;
    let mut rules = Vec::with_capacity(n_rules);
    for _ in 0..n_rules {
        let kind = match r.u8()? {
            0 => PRuleKind::Alts { first: r.u32()?, count: r.u32()? },
            1 => PRuleKind::Builtin(builtin_of(r.u8()?)?),
            2 => PRuleKind::Blackbox(r.u32()?),
            other => return Err(Error::Artifact(format!("unknown rule tag {other}"))),
        };
        let is_local = r.u8()? != 0;
        rules.push(PRule { kind, is_local });
    }

    // 5. Alternatives.
    let n_alts = r.count("alt")?;
    let mut alts = Vec::with_capacity(n_alts);
    for _ in 0..n_alts {
        alts.push(PAlt { first: r.u32()?, count: r.u32()?, n_slots: r.u16()? });
    }

    // 6. Instructions.
    let n_code = r.count("instruction")?;
    let mut code = Vec::with_capacity(n_code);
    for _ in 0..n_code {
        let instr = match r.u8()? {
            0 => Instr::Match {
                lit: LitSpan { start: r.u32()?, len: r.u32()? },
                lo: ExprId(r.u32()?),
                hi: ExprId(r.u32()?),
                slot: r.u16()?,
            },
            1 => Instr::Call {
                nt: NtId(r.u32()?),
                lo: ExprId(r.u32()?),
                hi: ExprId(r.u32()?),
                slot: r.u16()?,
            },
            2 => Instr::Set { attr: Sym(r.u32()?), expr: ExprId(r.u32()?) },
            3 => Instr::Guard { expr: ExprId(r.u32()?) },
            4 => Instr::Loop {
                var: Sym(r.u32()?),
                from: ExprId(r.u32()?),
                to: ExprId(r.u32()?),
                nt: NtId(r.u32()?),
                lo: ExprId(r.u32()?),
                hi: ExprId(r.u32()?),
                slot: r.u16()?,
            },
            5 => Instr::Star {
                nt: NtId(r.u32()?),
                lo: ExprId(r.u32()?),
                hi: ExprId(r.u32()?),
                slot: r.u16()?,
            },
            6 => Instr::Switch { first: r.u32()?, count: r.u16()?, slot: r.u16()? },
            other => return Err(Error::Artifact(format!("unknown instruction tag {other}"))),
        };
        code.push(instr);
    }

    // 7. Expressions.
    let n_exprs = r.count("expression")?;
    let mut exprs = Vec::with_capacity(n_exprs);
    for _ in 0..n_exprs {
        let expr = match r.u8()? {
            0 => BExpr::Num(r.i64()?),
            1 => BExpr::Bin(binop_of(r.u8()?)?, ExprId(r.u32()?), ExprId(r.u32()?)),
            2 => BExpr::Cond(ExprId(r.u32()?), ExprId(r.u32()?), ExprId(r.u32()?)),
            3 => BExpr::Eoi,
            4 => BExpr::Local(Sym(r.u32()?)),
            5 => BExpr::NtAttr { slot: r.u16()?, nt: NtId(r.u32()?), attr: Sym(r.u32()?) },
            6 => BExpr::ElemAttr {
                slot: r.u16()?,
                nt: NtId(r.u32()?),
                index: ExprId(r.u32()?),
                attr: Sym(r.u32()?),
            },
            7 => BExpr::OuterAttr { nt: NtId(r.u32()?), attr: Sym(r.u32()?) },
            8 => BExpr::OuterElem {
                nt: NtId(r.u32()?),
                index: ExprId(r.u32()?),
                attr: Sym(r.u32()?),
            },
            9 => {
                let var = Sym(r.u32()?);
                let slot = match r.u8()? {
                    0 => None,
                    1 => Some(r.u16()?),
                    other => {
                        return Err(Error::Artifact(format!("bad option tag {other} in Exists")))
                    }
                };
                BExpr::Exists {
                    var,
                    slot,
                    nt: NtId(r.u32()?),
                    cond: ExprId(r.u32()?),
                    then: ExprId(r.u32()?),
                    els: ExprId(r.u32()?),
                }
            }
            other => return Err(Error::Artifact(format!("unknown expression tag {other}"))),
        };
        exprs.push(expr);
    }

    // 8. Cases.
    let n_cases = r.count("case")?;
    let mut cases = Vec::with_capacity(n_cases);
    for _ in 0..n_cases {
        let cond = match r.u8()? {
            0 => None,
            1 => Some(ExprId(r.u32()?)),
            other => return Err(Error::Artifact(format!("bad option tag {other} in case"))),
        };
        cases.push(PCase { cond, nt: NtId(r.u32()?), lo: ExprId(r.u32()?), hi: ExprId(r.u32()?) });
    }

    // 9. Literal pool.
    let lits = r.bytes()?.to_vec();

    // 10. Nonterminal table.
    let n_nts = r.count("nonterminal")?;
    let mut names = Vec::with_capacity(n_nts);
    let mut nt_syms = Vec::with_capacity(n_nts);
    for _ in 0..n_nts {
        names.push(Arc::<str>::from(r.str()?));
        nt_syms.push(Sym(r.u32()?));
    }

    // 11. Anchor classification.
    let anchor = match r.u8()? {
        0 => AnchorRequirement::Prefix,
        1 => AnchorRequirement::Suffix { k: r.u64()? as usize },
        2 => AnchorRequirement::FullLength,
        other => return Err(Error::Artifact(format!("unknown anchor tag {other}"))),
    };

    // 12. Size hints.
    let hints = SizeHints {
        frames: r.u64()? as usize,
        nodes: r.u64()? as usize,
        leaves: r.u64()? as usize,
        children: r.u64()? as usize,
        shifts: r.u64()? as usize,
    };

    r.done()?;

    let program = Program {
        rules,
        alts,
        code,
        exprs,
        cases,
        lits,
        nt_table: Arc::new(NtTable { names, syms: nt_syms }),
        start,
    };
    let artifact = Artifact { version, spec, program, anchor, hints, source_hash, symbols };
    artifact.validate_structure()?;
    Ok(artifact)
}

/// A successful [`verify`] outcome: what the artifact is and which checks
/// actually ran.
#[derive(Clone, Debug)]
pub struct VerifyReport {
    /// Format version from the header.
    pub version: u32,
    /// Source hash from the header.
    pub source_hash: u64,
    /// Decoded payload size in bytes.
    pub payload_len: usize,
    /// Whether the artifact carries a MAC.
    pub signed: bool,
    /// Whether the MAC was actually verified (requires a configured key).
    pub mac_checked: bool,
    /// Rules in the decoded program.
    pub rules: usize,
    /// Symbols in the pinned symbol table.
    pub symbols: usize,
}

/// Verifies artifact bytes end to end, classifying any failure by stage:
/// envelope + provenance ([`split`] semantics), structural payload
/// decode, then reconstruction of the grammar from the embedded source
/// and cross-validation against the decoded program. `blackboxes` are
/// bound by name during reconstruction, as at load time.
pub fn verify(
    bytes: &[u8],
    key: Option<&[u8]>,
    blackboxes: Vec<Blackbox>,
) -> std::result::Result<VerifyReport, VerifyError> {
    let parts = split(bytes, key)?;
    let (version, source_hash, payload_len) =
        (parts.version, parts.source_hash, parts.payload.len());
    let (signed, mac_checked) = (parts.signed, parts.mac_checked);
    let artifact = decode_parts(parts).map_err(|e| VerifyError::Structural(e.to_string()))?;
    artifact.reconstruct_grammar(blackboxes).map_err(|e| VerifyError::Mismatch(e.to_string()))?;
    Ok(VerifyReport {
        version,
        source_hash,
        payload_len,
        signed,
        mac_checked,
        rules: artifact.program.rules.len(),
        symbols: artifact.symbols.len(),
    })
}

impl Artifact {
    /// Verifies every cross-pool index of the decoded program, so that a
    /// crafted (checksum-consistent) artifact can still never drive the
    /// VM out of bounds.
    fn validate_structure(&self) -> Result<()> {
        let p = &self.program;
        let n_rules = p.rules.len() as u32;
        let n_alts = p.alts.len() as u32;
        let n_code = p.code.len() as u32;
        let n_exprs = p.exprs.len() as u32;
        let n_cases = p.cases.len() as u32;
        let n_lits = p.lits.len() as u32;
        let n_syms = self.symbols.len() as u32;
        let err = |msg: String| Err(Error::Artifact(msg));

        let nt = |id: NtId| {
            if id.0 >= n_rules {
                return err(format!("nonterminal id {} out of range ({n_rules} rules)", id.0));
            }
            Ok(())
        };
        let ex = |id: ExprId| {
            if id.0 >= n_exprs {
                return err(format!("expression id {} out of range ({n_exprs} exprs)", id.0));
            }
            Ok(())
        };
        let sym = |s: Sym| {
            if s.0 >= n_syms {
                return err(format!("symbol {} out of range ({n_syms} symbols)", s.0));
            }
            Ok(())
        };

        if p.nt_table.names.len() != p.rules.len() {
            return err(format!(
                "nonterminal table has {} names for {} rules",
                p.nt_table.names.len(),
                p.rules.len()
            ));
        }
        nt(p.start)?;
        for s in &p.nt_table.syms {
            sym(*s)?;
        }

        for rule in &p.rules {
            if let PRuleKind::Alts { first, count } = rule.kind {
                if u64::from(first) + u64::from(count) > u64::from(n_alts) {
                    return err(format!("alt span {first}+{count} out of range ({n_alts} alts)"));
                }
            }
        }
        for alt in &p.alts {
            if u64::from(alt.first) + u64::from(alt.count) > u64::from(n_code) {
                return err(format!(
                    "instruction span {}+{} out of range ({n_code} instrs)",
                    alt.first, alt.count
                ));
            }
        }
        for instr in &p.code {
            match *instr {
                Instr::Match { lit, lo, hi, .. } => {
                    if u64::from(lit.start) + u64::from(lit.len) > u64::from(n_lits) {
                        return err(format!(
                            "literal span {}+{} out of range ({n_lits} bytes)",
                            lit.start, lit.len
                        ));
                    }
                    ex(lo)?;
                    ex(hi)?;
                }
                Instr::Call { nt: callee, lo, hi, .. } => {
                    nt(callee)?;
                    ex(lo)?;
                    ex(hi)?;
                }
                Instr::Set { attr, expr } => {
                    sym(attr)?;
                    ex(expr)?;
                }
                Instr::Guard { expr } => ex(expr)?,
                Instr::Loop { var, from, to, nt: callee, lo, hi, .. } => {
                    sym(var)?;
                    ex(from)?;
                    ex(to)?;
                    nt(callee)?;
                    ex(lo)?;
                    ex(hi)?;
                }
                Instr::Star { nt: callee, lo, hi, .. } => {
                    nt(callee)?;
                    ex(lo)?;
                    ex(hi)?;
                }
                Instr::Switch { first, count, .. } => {
                    if u64::from(first) + u64::from(count) > u64::from(n_cases) {
                        return err(format!(
                            "case span {first}+{count} out of range ({n_cases} cases)"
                        ));
                    }
                }
            }
        }
        for e in &p.exprs {
            match *e {
                BExpr::Num(_) | BExpr::Eoi => {}
                BExpr::Bin(_, a, b) => {
                    ex(a)?;
                    ex(b)?;
                }
                BExpr::Cond(c, t, f) => {
                    ex(c)?;
                    ex(t)?;
                    ex(f)?;
                }
                BExpr::Local(s) => sym(s)?,
                BExpr::NtAttr { nt: n, attr, .. } => {
                    nt(n)?;
                    sym(attr)?;
                }
                BExpr::ElemAttr { nt: n, index, attr, .. } => {
                    nt(n)?;
                    ex(index)?;
                    sym(attr)?;
                }
                BExpr::OuterAttr { nt: n, attr } => {
                    nt(n)?;
                    sym(attr)?;
                }
                BExpr::OuterElem { nt: n, index, attr } => {
                    nt(n)?;
                    ex(index)?;
                    sym(attr)?;
                }
                BExpr::Exists { var, nt: n, cond, then, els, .. } => {
                    sym(var)?;
                    nt(n)?;
                    ex(cond)?;
                    ex(then)?;
                    ex(els)?;
                }
            }
        }
        for case in &p.cases {
            if let Some(c) = case.cond {
                ex(c)?;
            }
            nt(case.nt)?;
            ex(case.lo)?;
            ex(case.hi)?;
        }
        Ok(())
    }

    /// Re-checks the embedded source (binding `blackboxes` by name) and
    /// verifies that the resulting grammar assigns exactly the symbols and
    /// nonterminal ids the program was compiled with.
    ///
    /// # Errors
    ///
    /// [`Error::Artifact`] when the reconstructed grammar disagrees with
    /// the artifact (which would make the program's pre-resolved ids dangle);
    /// frontend/check errors if the embedded source no longer parses.
    pub fn reconstruct_grammar(&self, blackboxes: Vec<Blackbox>) -> Result<Grammar> {
        let grammar = crate::frontend::parse_grammar_with(&self.spec, blackboxes)?;
        self.validate_against(&grammar)?;
        Ok(grammar)
    }

    /// Verifies the artifact against an already-checked grammar: same
    /// source hash, same symbol table, same nonterminal table, same start
    /// id, and in-range blackbox indices.
    pub fn validate_against(&self, grammar: &Grammar) -> Result<()> {
        // Recompute with the version the artifact was written at: the
        // hash input includes the format version, so a v1 artifact's key
        // differs from a v2 key over the same source.
        let expected = source_hash_v(self.version, &self.spec, grammar.blackboxes());
        if expected != self.source_hash {
            return Err(Error::Artifact(format!(
                "source hash mismatch: artifact {:016x}, grammar {expected:016x}",
                self.source_hash
            )));
        }
        let interner = grammar.interner();
        if interner.len() != self.symbols.len() {
            return Err(Error::Artifact(format!(
                "symbol table size mismatch: artifact {}, grammar {}",
                self.symbols.len(),
                interner.len()
            )));
        }
        for (i, name) in self.symbols.iter().enumerate() {
            let actual = interner.resolve(Sym(i as u32));
            if actual != name {
                return Err(Error::Artifact(format!(
                    "symbol {i} mismatch: artifact `{name}`, grammar `{actual}`"
                )));
            }
        }
        if self.program.rules.len() != grammar.nt_count() {
            return Err(Error::Artifact(format!(
                "rule count mismatch: artifact {}, grammar {}",
                self.program.rules.len(),
                grammar.nt_count()
            )));
        }
        if self.program.start != grammar.start_nt() {
            return Err(Error::Artifact(format!(
                "start nonterminal mismatch: artifact {}, grammar {}",
                self.program.start.0,
                grammar.start_nt().0
            )));
        }
        for (i, (name, sym)) in
            self.program.nt_table.names.iter().zip(&self.program.nt_table.syms).enumerate()
        {
            let nt = NtId(i as u32);
            if grammar.nt_name(nt) != &**name {
                return Err(Error::Artifact(format!(
                    "nonterminal {i} name mismatch: artifact `{name}`, grammar `{}`",
                    grammar.nt_name(nt)
                )));
            }
            if grammar.nt_name_sym(nt) != *sym {
                return Err(Error::Artifact(format!("nonterminal {i} symbol mismatch")));
            }
        }
        for rule in &self.program.rules {
            if let PRuleKind::Blackbox(idx) = rule.kind {
                if idx as usize >= grammar.blackboxes().len() {
                    return Err(Error::Artifact(format!(
                        "blackbox index {idx} out of range ({} registered)",
                        grammar.blackboxes().len()
                    )));
                }
            }
        }
        Ok(())
    }

    /// Binds the artifact to its reconstructed grammar, producing a
    /// ready-to-run [`VmParser`] without recompiling the bytecode.
    pub fn into_parser(self, grammar: &Grammar) -> Result<VmParser<'_>> {
        self.validate_against(grammar)?;
        Ok(VmParser::from_compiled(grammar, self.program, self.anchor, self.hints))
    }
}

// ---------------------------------------------------------------------------
// In-memory compilation
// ---------------------------------------------------------------------------

/// A compiled grammar: the checked grammar plus the program and
/// precomputed analyses, ready for [`VmParser::from_compiled`].
#[derive(Debug)]
pub struct CachedProgram {
    /// The checked grammar (reconstructed or freshly checked).
    pub grammar: Grammar,
    /// The bytecode program (deserialized or freshly compiled).
    pub program: Program,
    /// Streaming classification.
    pub anchor: AnchorRequirement,
    /// VM pre-sizing hints.
    pub hints: SizeHints,
    /// The source hash an artifact of this program carries in its header.
    pub source_hash: u64,
}

impl CachedProgram {
    /// Compiles `spec` in memory.
    pub fn compile(spec: &str, blackboxes: Vec<Blackbox>) -> Result<CachedProgram> {
        let grammar = crate::frontend::parse_grammar_with(spec, blackboxes)?;
        let program = compile(&grammar);
        let hints = program.size_hints();
        let anchor = anchor_requirement(&grammar);
        let source_hash = source_hash(spec, grammar.blackboxes());
        Ok(CachedProgram { grammar, program, anchor, hints, source_hash })
    }
}

/// Hit and miss counts of the former on-disk artifact cache. Grammars
/// are compiled from source in memory, so both always read 0; they
/// remain only for the benchmark's registry layer, which still reports
/// `registry.cache_hits`/`registry.cache_misses`, until the benchmark
/// drops those columns.
pub mod cache_totals {
    /// Always 0 (there is no artifact cache).
    pub fn hits() -> u64 {
        0
    }

    /// Always 0 (there is no artifact cache).
    pub fn misses() -> u64 {
        0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::frontend::parse_grammar;

    const FIG2: &str = r#"
        S -> H[0, 8] Data[H.offset, H.offset + H.length];
        H -> Int[0, 4] {offset = Int.val} Int[4, 8] {length = Int.val};
        Int := u32le;
        Data := bytes;
    "#;

    fn roundtrip(spec: &str) -> (Grammar, Artifact) {
        let g = parse_grammar(spec).unwrap();
        let bytes = encode_grammar(spec, &g);
        let artifact = decode(&bytes).expect("decode what we encoded");
        (g, artifact)
    }

    #[test]
    fn roundtrip_preserves_disassembly_anchor_and_hints() {
        let (g, artifact) = roundtrip(FIG2);
        let fresh = compile(&g);
        assert_eq!(artifact.program.disassemble(&g), fresh.disassemble(&g));
        assert_eq!(artifact.anchor, anchor_requirement(&g));
        let (fh, ah) = (fresh.size_hints(), artifact.hints);
        assert_eq!(
            (fh.frames, fh.nodes, fh.leaves, fh.children, fh.shifts),
            (ah.frames, ah.nodes, ah.leaves, ah.children, ah.shifts)
        );
    }

    #[test]
    fn loaded_program_parses_identically() {
        let (g, artifact) = roundtrip(FIG2);
        let reconstructed = artifact.reconstruct_grammar(Vec::new()).unwrap();
        let vm = artifact.into_parser(&reconstructed).unwrap();
        let mut input = vec![8u8, 0, 0, 0, 4, 0, 0, 0];
        input.extend_from_slice(b"DATA");
        let tree = vm.parse(&input).expect("loaded program parses");
        let h = tree.root().as_node().unwrap().child_node_nt(g.nt_id("H").unwrap()).unwrap();
        assert_eq!(h.attr(&reconstructed, "offset"), Some(8));
        assert_eq!(h.attr(&reconstructed, "length"), Some(4));
    }

    #[test]
    fn bad_magic_is_a_typed_error() {
        let g = parse_grammar(FIG2).unwrap();
        let mut bytes = encode_grammar(FIG2, &g);
        bytes[0] = b'X';
        match decode(&bytes) {
            Err(Error::Artifact(msg)) => assert!(msg.contains("magic"), "{msg}"),
            other => panic!("expected Artifact error, got {other:?}"),
        }
    }

    #[test]
    fn version_skew_is_a_typed_error() {
        let g = parse_grammar(FIG2).unwrap();
        let mut bytes = encode_grammar(FIG2, &g);
        bytes[4..8].copy_from_slice(&(FORMAT_VERSION + 1).to_le_bytes());
        match decode(&bytes) {
            Err(Error::Artifact(msg)) => assert!(msg.contains("version skew"), "{msg}"),
            other => panic!("expected Artifact error, got {other:?}"),
        }
    }

    #[test]
    fn every_truncation_is_a_typed_error() {
        let g = parse_grammar(FIG2).unwrap();
        let bytes = encode_grammar(FIG2, &g);
        for len in 0..bytes.len() {
            match decode(&bytes[..len]) {
                Err(Error::Artifact(_)) => {}
                other => {
                    panic!("truncation to {len} bytes: expected Artifact error, got {other:?}")
                }
            }
        }
    }

    #[test]
    fn every_single_byte_corruption_is_caught() {
        let g = parse_grammar(FIG2).unwrap();
        let bytes = encode_grammar(FIG2, &g);
        // Corrupting any payload byte must trip the checksum; corrupting
        // the header must trip magic/version/length/hash checks. (Header
        // fields `source_hash` are only validated against a grammar, so
        // flip payload + structural header bytes here.)
        for i in (0..bytes.len()).step_by(7) {
            if (8..16).contains(&i) {
                continue; // source hash: validated by validate_against below
            }
            let mut c = bytes.clone();
            c[i] ^= 0x5a;
            assert!(
                matches!(decode(&c), Err(Error::Artifact(_))),
                "flipping byte {i} went undetected"
            );
        }
    }

    #[test]
    fn source_hash_corruption_is_caught_against_the_grammar() {
        let g = parse_grammar(FIG2).unwrap();
        let mut bytes = encode_grammar(FIG2, &g);
        bytes[8] ^= 0xff;
        let artifact = decode(&bytes).expect("payload itself is intact");
        match artifact.validate_against(&g) {
            Err(Error::Artifact(msg)) => assert!(msg.contains("source hash"), "{msg}"),
            other => panic!("expected Artifact error, got {other:?}"),
        }
    }

    #[test]
    fn grammar_mismatch_is_a_typed_error() {
        let g = parse_grammar(FIG2).unwrap();
        let bytes = encode_grammar(FIG2, &g);
        let artifact = decode(&bytes).unwrap();
        let other = parse_grammar(r#"S -> "x"[0, 1];"#).unwrap();
        assert!(matches!(artifact.validate_against(&other), Err(Error::Artifact(_))));
    }

    #[test]
    fn spec_or_blackbox_change_changes_the_source_hash() {
        let a = source_hash(FIG2, &[]);
        let b = source_hash(r#"S -> "x"[0, 1];"#, &[]);
        assert_ne!(a, b);
        let bb = Blackbox::new("inflate", |_| Ok(Default::default()));
        assert_ne!(source_hash(FIG2, &[]), source_hash(FIG2, std::slice::from_ref(&bb)));
    }

    /// Rewrites v2 artifact bytes as the v1 format: trailer stripped,
    /// header version and source hash patched.
    fn downgrade_to_v1(bytes: &[u8], spec: &str) -> Vec<u8> {
        let mut v1 = bytes[..bytes.len() - TRAILER_MIN].to_vec();
        v1[4..8].copy_from_slice(&1u32.to_le_bytes());
        v1[8..16].copy_from_slice(&source_hash_v(1, spec, &[]).to_le_bytes());
        v1
    }

    #[test]
    fn v1_artifacts_still_decode_and_validate() {
        let g = parse_grammar(FIG2).unwrap();
        let v1 = downgrade_to_v1(&encode_grammar(FIG2, &g), FIG2);
        let artifact = decode(&v1).expect("v1 decode stays supported");
        assert_eq!(artifact.version, 1);
        // validate_against must recompute the key at the artifact's own
        // version, not the loader's.
        artifact.validate_against(&g).expect("version-aware source hash");
        let reconstructed = artifact.reconstruct_grammar(Vec::new()).unwrap();
        let vm = artifact.into_parser(&reconstructed).unwrap();
        let mut input = vec![8u8, 0, 0, 0, 4, 0, 0, 0];
        input.extend_from_slice(b"DATA");
        vm.parse(&input).expect("v1 program parses");
    }

    #[test]
    fn v1_artifacts_are_rejected_under_a_key() {
        let g = parse_grammar(FIG2).unwrap();
        let v1 = downgrade_to_v1(&encode_grammar(FIG2, &g), FIG2);
        match verify(&v1, Some(b"k"), Vec::new()) {
            Err(VerifyError::Provenance(m)) => assert!(m.contains("trailer"), "{m}"),
            other => panic!("expected Provenance, got {other:?}"),
        }
    }

    #[test]
    fn signed_roundtrip_and_tamper_detection() {
        let g = parse_grammar(FIG2).unwrap();
        let program = compile(&g);
        let hints = program.size_hints();
        let anchor = anchor_requirement(&g);
        let key = b"test-key".as_slice();
        let signed = encode_signed(FIG2, &g, &program, anchor, hints, key);

        decode_with_key(&signed, Some(key)).expect("valid MAC accepted");
        decode_with_key(&signed, None).expect("no key: signature ignored, digest still checked");
        assert!(
            decode_with_key(&signed, Some(b"wrong-key")).is_err(),
            "wrong key must be rejected"
        );

        let mut tampered = signed.clone();
        let last = tampered.len() - 1;
        tampered[last] ^= 0x01; // flip a MAC byte
        match decode_with_key(&tampered, Some(key)) {
            Err(Error::Artifact(m)) => assert!(m.contains("MAC"), "{m}"),
            other => panic!("expected MAC failure, got {other:?}"),
        }

        let unsigned = encode(FIG2, &g, &program, anchor, hints);
        match verify(&unsigned, Some(key), Vec::new()) {
            Err(VerifyError::Provenance(m)) => assert!(m.contains("unsigned"), "{m}"),
            other => panic!("expected Provenance, got {other:?}"),
        }
    }

    #[test]
    fn verify_classifies_failures_by_stage() {
        let g = parse_grammar(FIG2).unwrap();
        let bytes = encode_grammar(FIG2, &g);

        let report = verify(&bytes, None, Vec::new()).expect("intact artifact verifies");
        assert_eq!(report.version, FORMAT_VERSION);
        assert!(!report.signed && !report.mac_checked);
        assert!(report.rules > 0 && report.symbols > 0);

        let mut bad_magic = bytes.clone();
        bad_magic[0] = b'X';
        assert!(matches!(verify(&bad_magic, None, Vec::new()), Err(VerifyError::Structural(_))));

        let mut skew = bytes.clone();
        skew[4..8].copy_from_slice(&99u32.to_le_bytes());
        assert!(matches!(
            verify(&skew, None, Vec::new()),
            Err(VerifyError::VersionSkew { found: 99, .. })
        ));

        // Flip a byte inside the payload: the SHA-256 digest catches it
        // before any structural decode runs.
        let mut corrupt = bytes.clone();
        let mid = HEADER_LEN + (bytes.len() - HEADER_LEN - TRAILER_MIN) / 2;
        corrupt[mid] ^= 0xff;
        assert!(matches!(verify(&corrupt, None, Vec::new()), Err(VerifyError::Provenance(_))));

        // A consistent artifact whose embedded source disagrees with its
        // program: structural and provenance checks pass, reconstruction
        // does not.
        let other_spec = r#"S -> "x"[0, 1];"#;
        let program = compile(&g);
        let mismatched =
            encode(other_spec, &g, &program, anchor_requirement(&g), program.size_hints());
        assert!(matches!(verify(&mismatched, None, Vec::new()), Err(VerifyError::Mismatch(_))));
    }
}
