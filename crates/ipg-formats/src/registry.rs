//! The one grammar registry every consumer shares.
//!
//! The differential test suites, the conformance fuzzing harness, the
//! bench binaries, `ipg-serve`, and the `ipg` CLI all resolve grammars
//! through a [`Registry`]: a name → (checked grammar, compiled VM) table
//! whose entries are compiled from `.ipg` source in memory
//! ([`CachedProgram::compile`]). The built-in corpus ([`Registry::corpus`])
//! is materialized once per process, and user-supplied `.ipg` sources
//! named on a command line flow through [`Registry::load_path`] into the
//! exact same table, so "built-in" and "user-supplied" are
//! indistinguishable downstream.
//!
//! ## Generations, not leaks
//!
//! Each loaded grammar lives in an [`Arc`]-counted [`Compiled`]
//! *generation*: the bytecode parser, which owns the checked grammar it
//! was compiled from, packaged as one refcounted unit.
//! [`Registry::reload`] and [`Registry::load_path`] swap a name to a new
//! generation atomically — holders of the old [`Arc`] (in-flight parse
//! sessions, pinned entries) keep using the generation they started
//! with until they drop it, new lookups observe the new one, and a
//! failed load leaves the table untouched (rollback is the absence of a
//! swap, never a half-updated entry). A registry handle is cheap to
//! clone and *shared*: clones see each other's reloads, which is what
//! lets a filesystem watcher thread feed a live server.
//!
//! The per-process corpus table ([`pinned_corpus`]) is still pinned for
//! the process lifetime — that one intentional, bounded promotion gives
//! the format modules their `grammar()`/`vm()` statics — but repeated
//! loads no longer leak: everything dynamic is reference-counted.

use ipg_core::blackbox::Blackbox;
use ipg_core::check::Grammar;
use ipg_core::error::{Error, Result};
use ipg_core::interp::vm::{Outcome, ParseTree, VmParser};
use ipg_core::interp::Parser;
use ipg_core::ipgc::CachedProgram;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, OnceLock, RwLock};

/// One compiled grammar generation: the [`VmParser`] (which owns the
/// checked [`Grammar`] it was compiled from) and the hash of its source,
/// handed out behind a single [`Arc`].
pub struct Compiled {
    vm: VmParser,
    source_hash: u64,
}

impl Compiled {
    /// Packages a compiled program as one refcounted generation.
    pub fn from_cached(cached: CachedProgram) -> Arc<Compiled> {
        let CachedProgram { grammar, program, source_hash } = cached;
        let vm = VmParser::from_compiled(grammar, program);
        Arc::new(Compiled { vm, source_hash })
    }

    /// The checked grammar (tree-walking interpreter side).
    pub fn grammar(&self) -> &Grammar {
        self.vm.grammar()
    }

    /// The compiled bytecode parser (fuel-free; bound work per parse with
    /// [`ipg_core::interp::vm::Session::max_steps`] or a fueled wrapper).
    pub fn vm(&self) -> &VmParser {
        &self.vm
    }

    /// The source hash of the spec this generation was compiled from.
    pub fn source_hash(&self) -> u64 {
        self.source_hash
    }
}

impl std::fmt::Debug for Compiled {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Compiled")
            .field("start", &self.grammar().start_nt_name())
            .field("source_hash", &format_args!("{:016x}", self.source_hash))
            .finish_non_exhaustive()
    }
}

/// Monotone generation ids, process-wide: every swap observably advances.
fn next_generation() -> u64 {
    static GENERATION: AtomicU64 = AtomicU64::new(1);
    GENERATION.fetch_add(1, Ordering::Relaxed)
}

/// One registered grammar: a name bound to a [`Compiled`] generation.
/// Cloning an entry clones the *handle* — the generation itself is
/// shared and stays alive as long as any clone does.
#[derive(Clone, Debug)]
pub struct Entry {
    /// Registry name (corpus module name, or a file stem for loaded paths).
    pub name: String,
    /// The generation id: strictly increasing across reloads, so a
    /// changed id is proof a swap happened.
    pub generation: u64,
    handle: Arc<Compiled>,
}

impl Entry {
    fn new(name: String, handle: Arc<Compiled>) -> Entry {
        Entry { name, generation: next_generation(), handle }
    }

    /// The checked grammar of this entry's generation.
    pub fn grammar(&self) -> &Grammar {
        self.handle.grammar()
    }

    /// The compiled bytecode parser of this entry's generation.
    pub fn vm(&self) -> &VmParser {
        self.handle.vm()
    }

    /// The generation handle itself (pin it to keep the grammar alive
    /// independent of the registry).
    pub fn handle(&self) -> Arc<Compiled> {
        Arc::clone(&self.handle)
    }
}

/// How to rebuild a registered grammar for [`Registry::reload`].
#[derive(Clone)]
enum ReloadSource {
    /// Recompile from an in-memory spec (corpus grammars and
    /// [`Registry::load_spec`] registrations).
    Spec { spec: String, blackboxes: Vec<Blackbox> },
    /// Re-read a `.ipg` source file.
    Path(PathBuf),
}

struct Slot {
    entry: Entry,
    reload: Option<ReloadSource>,
}

/// A name → compiled-grammar table behind a shared, atomically-swappable
/// core. Cloning a `Registry` clones the *handle*: clones observe each
/// other's registrations and reloads (a watcher thread and a server can
/// share one table). See the module docs.
#[derive(Clone, Default)]
pub struct Registry {
    slots: Arc<RwLock<Vec<Slot>>>,
}

impl std::fmt::Debug for Registry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Registry").field("names", &self.names()).finish()
    }
}

/// An embedded corpus format: everything needed to (re)compile it —
/// name, spec source, and a constructor for its blackbox bindings
/// (blackboxes are runtime function pointers, bound anew on every load).
#[derive(Clone, Copy)]
pub struct FormatDescriptor {
    /// Registry name (`ipg-formats` module name).
    pub name: &'static str,
    /// The embedded `.ipg` source.
    pub spec: &'static str,
    /// Constructs the blackbox bindings this grammar requires.
    pub blackboxes: fn() -> Vec<Blackbox>,
}

fn no_blackboxes() -> Vec<Blackbox> {
    Vec::new()
}

/// The nine-grammar corpus under cross-engine test, in registry order.
/// Adding a format here is what puts it under test: the differential
/// suites, the conformance harness, the bench binaries, `ipg-serve`, and
/// the CLI corpus listing all sweep exactly this table.
pub fn corpus_descriptors() -> [FormatDescriptor; 9] {
    [
        FormatDescriptor { name: "zip", spec: crate::zip::SPEC, blackboxes: no_blackboxes },
        FormatDescriptor {
            name: "zip_inflate",
            spec: crate::zip::SPEC_INFLATE,
            blackboxes: crate::zip::inflate_blackboxes,
        },
        FormatDescriptor { name: "dns", spec: crate::dns::SPEC, blackboxes: no_blackboxes },
        FormatDescriptor { name: "png", spec: crate::png::SPEC, blackboxes: no_blackboxes },
        FormatDescriptor { name: "gif", spec: crate::gif::SPEC, blackboxes: no_blackboxes },
        FormatDescriptor { name: "elf", spec: crate::elf::SPEC, blackboxes: no_blackboxes },
        FormatDescriptor { name: "ipv4udp", spec: crate::ipv4udp::SPEC, blackboxes: no_blackboxes },
        FormatDescriptor { name: "pe", spec: crate::pe::SPEC, blackboxes: no_blackboxes },
        FormatDescriptor { name: "pdf", spec: crate::pdf::SPEC, blackboxes: no_blackboxes },
    ]
}

/// Compiles one spec in memory into an entry.
fn load_entry(name: &str, spec: &str, blackboxes: Vec<Blackbox>) -> Result<Entry> {
    let cached = CachedProgram::compile(spec, blackboxes)?;
    Ok(Entry::new(name.to_owned(), Compiled::from_cached(cached)))
}

/// Loads a `.ipg` source file into an entry named after its file stem,
/// compiled in memory.
fn load_path_entry(path: &Path) -> Result<Entry> {
    let name = stem_of(path)?;
    let spec = std::fs::read_to_string(path)
        .map_err(|e| Error::Grammar(format!("cannot read {}: {e}", path.display())))?;
    load_entry(&name, &spec, Vec::new())
}

/// The per-process corpus table, compiled once from source and pinned for the process lifetime (this is what backs the format
/// modules' `grammar()`/`vm()` statics — one bounded promotion, not a
/// per-load leak).
pub fn pinned_corpus() -> &'static [Entry] {
    static ENTRIES: OnceLock<Vec<Entry>> = OnceLock::new();
    ENTRIES.get_or_init(|| {
        corpus_descriptors()
            .into_iter()
            .map(|d| {
                load_entry(d.name, d.spec, (d.blackboxes)())
                    .unwrap_or_else(|e| panic!("corpus grammar `{}` failed to load: {e}", d.name))
            })
            .collect()
    })
}

/// The shared corpus entry for a format module's `grammar()`/`vm()`
/// statics. Panics for names outside [`corpus_descriptors`].
pub fn corpus_entry(name: &str) -> &'static Entry {
    pinned_corpus()
        .iter()
        .find(|e| e.name == name)
        .unwrap_or_else(|| panic!("`{name}` is not a corpus grammar"))
}

impl Registry {
    /// An empty registry.
    pub fn new() -> Registry {
        Registry::default()
    }

    /// A fresh registry pre-populated with the nine-grammar corpus. The
    /// underlying generations are shared with [`pinned_corpus`] (compiled
    /// once per process); each call returns an
    /// independent table, so mutations and reloads stay local to it.
    pub fn corpus() -> Registry {
        let slots = pinned_corpus()
            .iter()
            .zip(corpus_descriptors())
            .map(|(entry, d)| Slot {
                entry: entry.clone(),
                reload: Some(ReloadSource::Spec {
                    spec: d.spec.to_owned(),
                    blackboxes: (d.blackboxes)(),
                }),
            })
            .collect();
        Registry { slots: Arc::new(RwLock::new(slots)) }
    }

    fn read(&self) -> std::sync::RwLockReadGuard<'_, Vec<Slot>> {
        self.slots.read().unwrap_or_else(|e| e.into_inner())
    }

    fn write(&self) -> std::sync::RwLockWriteGuard<'_, Vec<Slot>> {
        self.slots.write().unwrap_or_else(|e| e.into_inner())
    }

    /// Snapshots the registered entries, in registration order. The
    /// returned entries pin their generations: they stay valid across
    /// concurrent reloads.
    pub fn entries(&self) -> Vec<Entry> {
        self.read().iter().map(|s| s.entry.clone()).collect()
    }

    /// The registered names, in registration order.
    pub fn names(&self) -> Vec<String> {
        self.read().iter().map(|s| s.entry.name.clone()).collect()
    }

    /// Looks up an entry by name (a pinned snapshot, see [`entries`]).
    ///
    /// [`entries`]: Registry::entries
    pub fn get(&self, name: &str) -> Option<Entry> {
        self.read().iter().find(|s| s.entry.name == name).map(|s| s.entry.clone())
    }

    /// Pins the current generation for `name`: the cheapest lookup on
    /// the serve admission path, returning just the refcounted handle.
    pub fn pin(&self, name: &str) -> Option<Arc<Compiled>> {
        self.read().iter().find(|s| s.entry.name == name).map(|s| s.entry.handle())
    }

    /// Registers a pre-built generation under `name`, replacing any
    /// existing entry with that name. Entries registered this way have
    /// no reload source: [`Registry::reload`] reports a typed error for
    /// them.
    pub fn register(&self, name: &str, handle: Arc<Compiled>) -> Entry {
        self.insert(Entry::new(name.to_owned(), handle), None)
    }

    /// Compiles `.ipg` source in memory under `name` and registers it.
    ///
    /// # Errors
    ///
    /// Frontend/check errors when the spec is invalid.
    pub fn load_spec(&self, name: &str, spec: &str, blackboxes: Vec<Blackbox>) -> Result<Entry> {
        let entry = load_entry(name, spec, blackboxes.clone())?;
        let source = ReloadSource::Spec { spec: spec.to_owned(), blackboxes };
        Ok(self.insert(entry, Some(source)))
    }

    /// Loads a user-supplied grammar from a `.ipg` source file, registered
    /// under the file stem. Compiled in memory, like the corpus; loading a
    /// name that is already registered swaps its generation.
    ///
    /// # Errors
    ///
    /// I/O errors reading the file (as [`Error::Grammar`]) and
    /// frontend/check errors in the spec.
    pub fn load_path(&self, path: &Path) -> Result<Entry> {
        let entry = load_path_entry(path)?;
        Ok(self.insert(entry, Some(ReloadSource::Path(path.to_owned()))))
    }

    /// Rebuilds `name` from its recorded source (embedded spec or file
    /// path) and atomically swaps the new generation in.
    ///
    /// The load, validation, and compilation all happen *outside* the
    /// table lock; the table is only touched on success. On any error
    /// the previous generation remains current — a failed reload can
    /// never leave the registry half-swapped or empty.
    ///
    /// # Errors
    ///
    /// [`Error::Grammar`] when `name` is not registered or has no reload
    /// source; load/validation errors as for the original load.
    pub fn reload(&self, name: &str) -> Result<Entry> {
        let source = {
            let slots = self.read();
            let slot = slots
                .iter()
                .find(|s| s.entry.name == name)
                .ok_or_else(|| Error::Grammar(format!("`{name}` is not registered")))?;
            slot.reload.clone().ok_or_else(|| {
                Error::Grammar(format!(
                    "`{name}` was registered from a pre-built generation and has no reload source"
                ))
            })?
        };
        let entry = match &source {
            ReloadSource::Spec { spec, blackboxes } => load_entry(name, spec, blackboxes.clone())?,
            ReloadSource::Path(path) => {
                let entry = load_path_entry(path)?;
                if entry.name != name {
                    return Err(Error::Grammar(format!(
                        "reload of `{name}` resolved to `{}` — path renamed?",
                        entry.name
                    )));
                }
                entry
            }
        };
        Ok(self.insert(entry, Some(source)))
    }

    fn insert(&self, entry: Entry, reload: Option<ReloadSource>) -> Entry {
        let mut slots = self.write();
        let out = entry.clone();
        let slot = Slot { entry, reload };
        if let Some(i) = slots.iter().position(|s| s.entry.name == slot.entry.name) {
            slots[i] = slot;
        } else {
            slots.push(slot);
        }
        out
    }

    /// The oracle: the cross-engine agreement contract every differential
    /// lane checks. It parses `input` with the reference interpreter
    /// `parser`, with the one-shot VM `vm`, and with a fresh session of
    /// `vm` fed `input` cut at each offset in `cuts` (ascending; an offset
    /// past the input is cut at its end, and empty pieces are fed too),
    /// then finished. Step limits and memoization are the ones the two
    /// parsers carry. All three must agree on:
    ///
    /// * **steps** — every engine ticks at the same evaluation points;
    /// * **trees**, on acceptance — `TreeRef::to_tree` of each VM result
    ///   must equal the interpreter's tree node for node (shape, chosen
    ///   alternatives, attribute environments including `start`/`end`,
    ///   spans, blackbox payloads);
    /// * **deepest errors**, on rejection (offset, nonterminal, message).
    ///
    /// The session must also keep its own contract: a feed that rejects
    /// early is the error `finish` replays, and a closed session takes no
    /// more steps, neither at `finish` after an early rejection nor when
    /// fed again after `finish`.
    ///
    /// Trees convert and compare with explicit stacks, but the interpreter
    /// recurses once per level of right recursion. The 512-record list of
    /// `deep_recursive_lists_agree_across_engines` (`tests/vm_differential.rs`)
    /// needed 2.25–2.5 MiB of stack in a debug build and 0.5–1 MiB in
    /// release on x86-64 Linux, so a default 2 MiB test thread checks
    /// about 400 levels in debug and 1,000 in release; deeper lanes run on
    /// a thread with a larger stack.
    ///
    /// Returns `Ok(accepted)`.
    ///
    /// # Errors
    ///
    /// A description of the first divergence: which engine, and what
    /// differs — the step counts, the outcome, the errors, or, for trees,
    /// the first differing node by its nonterminal path, base and field.
    pub fn compare_engines(
        parser: &Parser<'_>,
        vm: &VmParser,
        input: &[u8],
        cuts: &[usize],
    ) -> std::result::Result<bool, String> {
        let (reference, ref_stats) = parser.parse_with_stats(input);
        let (one_shot, stats) = vm.parse_with_stats(input);
        let session = format!("session cut at {}", show_cuts(cuts));
        let (streamed, streamed_steps) =
            run_session(vm, input, cuts).map_err(|e| format!("{session}: {e}"))?;
        for (engine, outcome, steps) in
            [("one-shot VM", one_shot, stats.steps), (session.as_str(), streamed, streamed_steps)]
        {
            if steps != ref_stats.steps {
                return Err(format!(
                    "{engine} takes {steps} steps, the interpreter {}",
                    ref_stats.steps
                ));
            }
            match (&reference, outcome) {
                (Ok(want), Ok(tree)) => {
                    if let Some(diff) = want.first_difference(&tree.root().to_tree()) {
                        return Err(format!(
                            "{engine} builds a different tree than the interpreter; \
                             first difference (interpreter vs {engine}) at {diff}"
                        ));
                    }
                }
                (Err(want), Err(e)) if *want == e => {}
                (Err(want), Err(e)) => {
                    return Err(format!(
                        "{engine} rejects with a different error: interpreter {want:?}, \
                         {engine} {e:?}"
                    ))
                }
                (Ok(_), Err(e)) => {
                    return Err(format!("interpreter accepts, {engine} rejects: {e}"))
                }
                (Err(e), Ok(_)) => {
                    return Err(format!("{engine} accepts, interpreter rejects: {e}"))
                }
            }
        }
        Ok(reference.is_ok())
    }
}

/// A fresh session of `vm` fed `input` cut at `cuts`, then finished: its
/// outcome and steps, or how it broke the session contract.
fn run_session(
    vm: &VmParser,
    input: &[u8],
    cuts: &[usize],
) -> std::result::Result<(Result<ParseTree>, u64), String> {
    let mut session = vm.streaming();
    let mut from = 0;
    let mut early = None;
    for &cut in cuts.iter().chain([&input.len()]) {
        let to = cut.clamp(from, input.len());
        if let Outcome::Error(e) = session.feed(&input[from..to]) {
            early = Some((e, session.stats().steps));
            break;
        }
        from = to;
    }
    let outcome = match session.finish() {
        Outcome::Done(tree) => Ok(tree),
        Outcome::Error(e) => Err(e),
        Outcome::NeedInput { hint } => {
            return Err(format!("finish asks for more input ({hint:?})"))
        }
    };
    let steps = session.stats().steps;
    if let Some((e, at)) = early {
        if outcome.as_ref().err() != Some(&e) {
            return Err(format!(
                "feed rejected with {e:?} at offset {from}, finish then returns {outcome:?}"
            ));
        }
        if steps != at {
            return Err(format!("rejected after {at} steps, finish took {} more", steps - at));
        }
    }
    if session.feed(&[]).err().is_none() || session.stats().steps != steps {
        return Err("a finished session takes more input or steps".into());
    }
    Ok((outcome, steps))
}

/// `cuts` for a divergence message, elided past the first few.
fn show_cuts(cuts: &[usize]) -> String {
    const SHOWN: usize = 6;
    if cuts.len() <= SHOWN + 1 {
        return format!("{cuts:?}");
    }
    let head: Vec<String> = cuts[..SHOWN].iter().map(usize::to_string).collect();
    format!("[{}, … {} more, {}]", head.join(", "), cuts.len() - SHOWN - 1, cuts[cuts.len() - 1])
}

fn stem_of(path: &Path) -> Result<String> {
    path.file_stem().and_then(|s| s.to_str()).map(str::to_owned).ok_or_else(|| {
        Error::Grammar(format!("cannot derive a grammar name from {}", path.display()))
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use ipg_core::interp::vm::Outcome;

    #[test]
    fn corpus_has_all_nine_grammars_in_order() {
        let reg = Registry::corpus();
        assert_eq!(
            reg.names(),
            ["zip", "zip_inflate", "dns", "png", "gif", "elf", "ipv4udp", "pe", "pdf"]
        );
    }

    #[test]
    fn register_replaces_by_name() {
        let reg = Registry::new();
        let entry = corpus_entry("dns");
        reg.register("only", entry.handle());
        reg.register("only", entry.handle());
        assert_eq!(reg.entries().len(), 1);
        assert!(reg.pin("only").is_some());
        assert!(reg.pin("dns").is_none());
    }

    #[test]
    fn clones_share_one_table() {
        let a = Registry::new();
        let b = a.clone();
        a.register("shared", corpus_entry("dns").handle());
        assert!(b.pin("shared").is_some(), "clones must observe each other's registrations");
    }

    #[test]
    fn reload_swaps_generation_and_pins_survive() {
        let reg = Registry::corpus();
        // Start from a reloaded generation, which only this table owns
        // (the corpus generations are pinned for the process lifetime).
        reg.reload("dns").unwrap();
        let before = reg.get("dns").unwrap();
        let pinned = reg.pin("dns").unwrap();
        let old_generation = Arc::downgrade(&pinned);
        let mut session = pinned.vm().streaming();
        let after = reg.reload("dns").unwrap();
        assert!(after.generation > before.generation, "reload must advance the generation");
        assert!(
            !Arc::ptr_eq(&pinned, &reg.pin("dns").unwrap()),
            "the table must hand out the new generation"
        );
        // The pinned old generation still parses: in-flight work is
        // unaffected by the swap.
        let input = ipg_corpus::dns::generate(&Default::default()).bytes;
        pinned.vm().parse(&input).expect("old generation stays usable");
        reg.get("dns").unwrap().vm().parse(&input).expect("new generation parses");

        // A session outlives every handle on the generation it was
        // opened from, and still parses exactly like a one-shot parse.
        drop((reg, before, after, pinned));
        assert!(old_generation.upgrade().is_none(), "the old generation is gone");
        for chunk in input.chunks(7) {
            if let Some(e) = session.feed(chunk).err() {
                panic!("session rejected a valid prefix: {e}");
            }
        }
        let Outcome::Done(tree) = session.finish() else { panic!("session must complete") };
        let (one_shot, one_shot_stats) = corpus_entry("dns").vm().parse_with_stats(&input);
        assert_eq!(
            session.stats().steps,
            one_shot_stats.steps,
            "steps must equal a one-shot parse"
        );
        assert_eq!(tree.arena().len(), one_shot.unwrap().arena().len(), "node counts must match");
    }

    #[test]
    fn reload_of_prebuilt_registration_is_a_typed_error() {
        let reg = Registry::new();
        reg.register("pinned", corpus_entry("dns").handle());
        match reg.reload("pinned") {
            Err(Error::Grammar(m)) => assert!(m.contains("no reload source"), "{m}"),
            other => panic!("expected Grammar error, got {other:?}"),
        }
        assert!(reg.reload("absent").is_err());
    }

    #[test]
    fn failed_reload_rolls_back_to_the_previous_generation() {
        let dir = std::env::temp_dir().join(format!("ipg-reload-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("tiny.ipg");
        std::fs::write(&path, r#"S -> "a"[0, 1];"#).unwrap();

        let reg = Registry::new();
        let first = reg.load_path(&path).unwrap();
        first.vm().parse(b"a").expect("initial grammar parses");

        // Break the file on disk: the reload must fail and the table
        // must keep serving the old generation.
        std::fs::write(&path, "THIS IS NOT A GRAMMAR ->").unwrap();
        assert!(reg.reload("tiny").is_err());
        let current = reg.get("tiny").unwrap();
        assert_eq!(current.generation, first.generation, "failed reload must not swap");
        current.vm().parse(b"a").expect("previous generation still current");

        // Fix the file: now the swap happens and behavior changes.
        std::fs::write(&path, r#"S -> "b"[0, 1];"#).unwrap();
        let swapped = reg.reload("tiny").unwrap();
        assert!(swapped.generation > first.generation);
        swapped.vm().parse(b"b").expect("new grammar parses the new input");
        assert!(swapped.vm().parse(b"a").is_err(), "old input now rejected");
        let _ = std::fs::remove_dir_all(&dir);
    }
}
