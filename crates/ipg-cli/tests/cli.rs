//! End-to-end tests of the `ipg` binary: every subcommand runs against
//! the built executable (`CARGO_BIN_EXE_ipg`), deterministic outputs are
//! pinned as expect-files under `tests/expect/` (blessed with the same
//! `UPDATE_SNAPSHOTS=1` flow as the bytecode snapshots), and loading a
//! grammar is checked to leave nothing on disk.

#[path = "../../../tests/common/mod.rs"]
mod common;

use std::io::Write as _;
use std::path::{Path, PathBuf};
use std::process::{Command, Output, Stdio};

fn ipg(args: &[&str], env: &[(&str, &str)]) -> Output {
    let mut cmd = Command::new(env!("CARGO_BIN_EXE_ipg"));
    cmd.args(args);
    for (k, v) in env {
        cmd.env(k, v);
    }
    cmd.output().expect("spawn ipg")
}

fn ok_stdout(args: &[&str], env: &[(&str, &str)]) -> String {
    let out = ipg(args, env);
    assert!(
        out.status.success(),
        "ipg {args:?} exited with {:?}\nstdout:\n{}\nstderr:\n{}",
        out.status.code(),
        String::from_utf8_lossy(&out.stdout),
        String::from_utf8_lossy(&out.stderr),
    );
    String::from_utf8(out.stdout).expect("utf-8 stdout")
}

fn expect_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/expect")
}

/// A per-test scratch directory (fresh on entry, removed on drop).
struct Scratch(PathBuf);

impl Scratch {
    fn new(tag: &str) -> Scratch {
        let dir = std::env::temp_dir().join(format!("ipg-cli-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).expect("create scratch dir");
        Scratch(dir)
    }

    fn path(&self) -> &Path {
        &self.0
    }

    fn str(&self) -> &str {
        self.0.to_str().expect("utf-8 scratch path")
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

#[test]
fn no_arguments_prints_usage_and_exits_2() {
    let out = ipg(&[], &[]);
    assert_eq!(out.status.code(), Some(2));
    assert!(String::from_utf8_lossy(&out.stderr).contains("usage: ipg <command>"));
}

#[test]
fn help_after_a_command_prints_usage_and_exits_0() {
    for cmd in ["check", "compile", "disasm", "parse", "profile", "gen", "serve"] {
        for flag in ["--help", "-h"] {
            let out = ipg(&[cmd, flag], &[]);
            assert_eq!(out.status.code(), Some(0), "ipg {cmd} {flag}");
            let stdout = String::from_utf8_lossy(&out.stdout);
            assert!(stdout.contains("usage: ipg <command>"), "ipg {cmd} {flag}: {stdout}");
            assert!(
                out.stderr.is_empty(),
                "ipg {cmd} {flag}: {}",
                String::from_utf8_lossy(&out.stderr)
            );
        }
    }
    // Also after the command's own arguments.
    let out = ipg(&["parse", "zip", "--help"], &[]);
    assert_eq!(out.status.code(), Some(0));
}

#[test]
fn unknown_grammars_are_usage_errors_that_list_the_corpus() {
    let out = ipg(&["disasm", "no-such-grammar"], &[]);
    assert_eq!(out.status.code(), Some(2));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("neither a corpus grammar nor an existing file"), "{stderr}");
    assert!(stderr.contains("zip_inflate"), "should list the corpus: {stderr}");
}

#[test]
fn retired_commands_are_usage_errors() {
    // `.ipg` sources are the only deploy unit: there is no `verify`
    // command, `compile` writes nothing, and `check` emits no generated
    // parser (the bytecode VM is the only engine).
    let scratch = Scratch::new("retired");
    let spec = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../ipg-formats/specs/gif.ipg");
    let emitted = scratch.path().join("out.rs");
    let check = ["check", spec.to_str().unwrap(), "--emit-rust", emitted.to_str().unwrap()];
    for args in [&["verify", "dns.ipgc"][..], &["compile", "dns", "-o", "dns.ipgc"], &check] {
        let out = ipg(args, &[]);
        assert_eq!(out.status.code(), Some(2), "ipg {args:?}");
        assert!(
            out.stdout.is_empty(),
            "ipg {args:?} wrote {:?}",
            String::from_utf8_lossy(&out.stdout)
        );
    }
    assert!(!Path::new("dns.ipgc").exists());
    assert!(!emitted.exists(), "check wrote a generated parser");
}

#[test]
fn serve_workers_flag_is_a_usage_error() {
    // Requests run on the thread that receives them, so there is no
    // worker count to set; the flag is refused before anything binds.
    let scratch = Scratch::new("serve-workers");
    let sock = scratch.path().join("serve.sock");
    let out = ipg(&["serve", "--socket", sock.to_str().unwrap(), "--workers", "2"], &[]);
    assert_eq!(out.status.code(), Some(2));
    assert!(out.stdout.is_empty(), "{:?}", String::from_utf8_lossy(&out.stdout));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("unexpected argument `--workers`"), "{stderr}");
    assert!(!sock.exists(), "serve bound its socket");
}

#[test]
fn bench_info_lists_all_nine_corpus_grammars() {
    let stdout = ok_stdout(&["bench-info"], &[]);
    for name in ["zip", "zip_inflate", "dns", "png", "gif", "elf", "ipv4udp", "pe", "pdf"] {
        assert!(stdout.contains(name), "bench-info is missing `{name}`:\n{stdout}");
    }
}

#[test]
fn loading_grammars_writes_nothing_to_disk() {
    // HOME, XDG_CACHE_HOME and IPG_CACHE_DIR all point into one scratch
    // dir; an artifact planted where a cache would look must be neither
    // read nor renamed, and nothing else may appear.
    let scratch = Scratch::new("no-disk");
    let cache_dir = scratch.path().join("ipg");
    std::fs::create_dir_all(&cache_dir).unwrap();
    let d = ipg_formats::corpus_descriptors().into_iter().find(|d| d.name == "dns").unwrap();
    let hash = ipg_core::ipgc::source_hash(d.spec, &(d.blackboxes)());
    let planted = cache_dir.join(format!("dns-{hash:016x}.ipgc"));
    std::fs::write(&planted, b"not an artifact").unwrap();
    let env = [
        ("HOME", scratch.str()),
        ("XDG_CACHE_HOME", scratch.str()),
        ("IPG_CACHE_DIR", cache_dir.to_str().unwrap()),
    ];
    ok_stdout(&["compile", "dns"], &env);
    ok_stdout(&["parse", "dns"], &env);
    ok_stdout(&["bench-info"], &env);
    let now = std::fs::read(&planted).expect("the planted artifact must not be renamed");
    assert!(now == b"not an artifact", "the planted artifact was rewritten ({} bytes)", now.len());
    std::fs::remove_file(&planted).unwrap();
    std::fs::remove_dir(&cache_dir).expect("nothing besides the planted file");
    let left: Vec<_> = std::fs::read_dir(scratch.path()).unwrap().flatten().collect();
    assert!(left.is_empty(), "loading wrote {left:?}");
}

#[test]
fn disasm_matches_the_pinned_bytecode_snapshot() {
    // The same golden the `bytecode_snapshot` suite pins: the CLI listing
    // for a registry-loaded program must be byte-identical to it.
    let golden_dir = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../tests/snapshots");
    let stdout = ok_stdout(&["disasm", "dns"], &[]);
    common::check_snapshot(&golden_dir, "dns.bc.txt", &stdout);
}

#[test]
fn profile_table_and_folded_stacks_are_pinned() {
    // The profiler counts and never times, so both views of a profiled
    // parse of a self-generated sample are expect-files. `--top` keeps
    // the header, the rules with the most self instructions and the
    // totals over every rule.
    let stdout = ok_stdout(&["profile", "elf", "--top", "3"], &[]);
    common::check_snapshot(&expect_dir(), "profile_elf_top3.txt", &stdout);
    let stdout = ok_stdout(&["profile", "dns", "--folded"], &[]);
    common::check_snapshot(&expect_dir(), "profile_dns.folded", &stdout);
}

#[test]
fn parse_tree_dump_is_pinned() {
    // The self-generated DNS sample is deterministic, so the whole tree
    // dump is an expect-file.
    let stdout = ok_stdout(&["parse", "dns", "--depth", "3"], &[]);
    common::check_snapshot(&expect_dir(), "parse_dns.txt", &stdout);
}

#[test]
fn parse_extract_listing_is_pinned() {
    let stdout = ok_stdout(&["parse", "zip", "--extract"], &[]);
    common::check_snapshot(&expect_dir(), "extract_zip.txt", &stdout);
}

#[test]
fn parse_streams_stdin_through_a_session() {
    let archive = common::default_corpus_input("zip");
    let mut cmd = Command::new(env!("CARGO_BIN_EXE_ipg"))
        .args(["parse", "zip", "-"])
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawn ipg");
    cmd.stdin.take().expect("piped stdin").write_all(&archive).expect("write stdin");
    let out = cmd.wait_with_output().expect("wait for ipg");
    assert!(out.status.success(), "stderr:\n{}", String::from_utf8_lossy(&out.stderr));
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("stdin (streamed)"), "{stdout}");
}

/// A valid 100,194-byte ELF whose string table holds one string of
/// 100,000 characters: `Str`'s right recursion makes its tree 100,000
/// levels deep.
fn deep_elf() -> Vec<u8> {
    const CHARS: usize = 100_000;
    let strtab_len = CHARS as u64 + 2;
    let mut elf = vec![0u8; 64];
    elf[..4].copy_from_slice(b"\x7fELF");
    elf[4] = 2; // 64-bit
    elf[5] = 1; // little-endian
    elf[40..48].copy_from_slice(&(64 + strtab_len).to_le_bytes()); // shoff
    elf[58..60].copy_from_slice(&64u16.to_le_bytes()); // shentsize
    elf[60..62].copy_from_slice(&2u16.to_le_bytes()); // shnum
    elf[62..64].copy_from_slice(&1u16.to_le_bytes()); // shstrndx
    elf.push(0);
    elf.resize(elf.len() + CHARS, b'a');
    elf.push(0);
    elf.resize(elf.len() + 64, 0); // the null section header
    let mut strtab = [0u8; 64];
    strtab[4..8].copy_from_slice(&3u32.to_le_bytes()); // SHT_STRTAB
    strtab[24..32].copy_from_slice(&64u64.to_le_bytes());
    strtab[32..40].copy_from_slice(&strtab_len.to_le_bytes());
    elf.extend(strtab);
    assert_eq!(elf.len(), 100_194);
    elf
}

#[test]
fn parse_prints_a_tree_as_deep_as_its_input() {
    let scratch = Scratch::new("deepelf");
    let file = scratch.path().join("deep.elf");
    let elf = deep_elf();
    std::fs::write(&file, &elf).expect("write input");
    let file = file.to_str().unwrap();
    for args in [&["parse", "elf", file][..], &["parse", "elf", file, "--depth", "2"]] {
        let stdout = ok_stdout(args, &[]);
        assert!(stdout.starts_with("elf: parsed 100194 bytes"), "{stdout}");
    }
    let mut cmd = Command::new(env!("CARGO_BIN_EXE_ipg"))
        .args(["parse", "elf", "-"])
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawn ipg");
    cmd.stdin.take().expect("piped stdin").write_all(&elf).expect("write stdin");
    let out = cmd.wait_with_output().expect("wait for ipg");
    assert!(out.status.success(), "stderr:\n{}", String::from_utf8_lossy(&out.stderr));
}

#[test]
fn parse_loads_user_grammars_from_ipg_sources() {
    let scratch = Scratch::new("usergrammar");
    let spec = scratch.path().join("pair.ipg");
    std::fs::write(&spec, "S -> A[0, 1] {x = A.val} B[1, 2] {y = B.val};\nA := u8;\nB := u8;\n")
        .expect("write spec");
    let input = scratch.path().join("input.bin");
    std::fs::write(&input, [7u8, 9]).expect("write input");
    let stdout = ok_stdout(&["parse", spec.to_str().unwrap(), input.to_str().unwrap()], &[]);
    assert!(stdout.contains("pair: parsed 2 bytes"), "{stdout}");
    assert!(stdout.contains("x=7") && stdout.contains("y=9"), "{stdout}");
}

#[test]
fn check_runs_the_full_toolchain_on_a_shipped_spec() {
    let spec = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../ipg-formats/specs/gif.ipg");
    let stdout = ok_stdout(&["check", spec.to_str().unwrap()], &[]);
    assert!(stdout.contains("attribute checking: ok"), "{stdout}");
    assert!(stdout.contains("termination: proved"), "{stdout}");
}

#[test]
fn serve_drains_gracefully_on_sigterm() {
    use ipg_serve::proto::{Client, RetryPolicy, Wire};
    use std::io::Read as _;
    use std::time::Duration;

    let scratch = Scratch::new("serve-drain");
    let sock = scratch.path().join("serve.sock");
    let mut child = Command::new(env!("CARGO_BIN_EXE_ipg"))
        .args(["serve", "--socket", sock.to_str().unwrap()])
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawn ipg serve");

    // Ride out startup (grammar loading) with a patient connect retry.
    let policy = RetryPolicy {
        attempts: 14,
        base: Duration::from_millis(5),
        cap: Duration::from_secs(2),
        ..RetryPolicy::default()
    };
    let mut client = Client::connect_with_retry(&sock, &policy).expect("connect to ipg serve");
    client.set_reply_timeout(Some(Duration::from_secs(10))).expect("timeout");

    // Real mid-traffic state: a completed parse plus an open session.
    let input = common::default_corpus_input("dns");
    assert!(matches!(client.parse("dns", &input).expect("io"), Wire::Done { .. }));
    let Wire::Opened { id } = client.open("dns").expect("io") else { panic!("expected Opened") };
    assert!(matches!(client.feed(id, &input[..2]).expect("io"), Wire::NeedInput { .. }));

    let kill =
        Command::new("kill").args(["-TERM", &child.id().to_string()]).status().expect("run kill");
    assert!(kill.success());

    // The drain seals the (now idle) connection with an unsolicited
    // GOAWAY and a clean EOF — never a torn frame, never a reset.
    assert_eq!(client.recv().expect("io"), Some(Wire::GoAway));
    assert_eq!(client.recv().expect("io"), None, "clean EOF after GOAWAY");

    let mut waited = 0u64;
    let status = loop {
        if let Some(st) = child.try_wait().expect("try_wait") {
            break st;
        }
        if waited >= 15_000 {
            let _ = child.kill();
            let _ = child.wait();
            panic!("ipg serve did not exit within 15s of SIGTERM");
        }
        std::thread::sleep(Duration::from_millis(50));
        waited += 50;
    };
    assert!(status.success(), "graceful drain must exit 0, got {status:?}");
    let mut stdout = String::new();
    child.stdout.take().expect("piped stdout").read_to_string(&mut stdout).expect("read stdout");
    assert!(stdout.contains("draining"), "missing drain notice:\n{stdout}");
    assert!(stdout.contains("drained:"), "missing reconciliation line:\n{stdout}");
    assert!(stdout.contains("exiting 0"), "missing exit notice:\n{stdout}");
}

#[test]
fn gen_writes_vm_verified_inputs() {
    let scratch = Scratch::new("gen");
    let stdout = ok_stdout(&["gen", "png", "--count", "2", "--out", scratch.str()], &[]);
    assert!(stdout.contains("seed 0") && stdout.contains("seed 1"), "{stdout}");
    for seed in 0..2 {
        let path = scratch.path().join(format!("seed_{seed}.bin"));
        assert!(path.exists(), "missing {path:?}");
        // And the written bytes really parse as the grammar they were
        // generated from.
        let bytes = std::fs::read(&path).expect("read generated input");
        let parse = ok_stdout(&["parse", "png", path.to_str().unwrap()], &[]);
        assert!(parse.contains(&format!("parsed {} bytes", bytes.len())), "{parse}");
    }
}
