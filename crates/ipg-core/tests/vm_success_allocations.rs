//! A successful VM parse allocates its tree's arena pools and the element
//! lists of its `for`/`star` terms, nothing per node: attribute values go
//! to the arena's shared attribute pool, and every other piece of working
//! storage is recycled from the thread's previous parse. When a tree
//! drops, its arena goes back to the dropping thread too, so a parse that
//! follows a dropped tree does not allocate arena pools either.
//!
//! `ipg_baselines::alloc_meter` counts per thread, so the test harness's
//! own threads cannot disturb the counts.

use ipg_baselines::alloc_meter::{self, CountingAllocator};
use ipg_core::frontend::parse_grammar;
use ipg_core::interp::vm::{Outcome, VmParser};

#[global_allocator]
static ALLOC: CountingAllocator = CountingAllocator;

/// One successful parse of `input` on a warm thread that has no arena to
/// recycle (the same parse runs once first to fill the thread's workspace,
/// and its tree stays alive): the allocations it made, and the bytes it
/// holds while its tree is alive — the tree's footprint plus whatever
/// working storage the parse kept growing.
fn warm_parse_allocations(parser: &VmParser, input: &[u8]) -> (usize, isize) {
    let warm_up = parser.parse(input).expect("warm-up parse succeeds");
    let measured = measure(|| parser.parse(input).expect("parse succeeds"));
    drop(warm_up);
    measured
}

/// The allocations `f` makes on this thread, and the bytes it leaves
/// allocated while what it returns is alive.
fn measure<T>(f: impl FnOnce() -> T) -> (usize, isize) {
    let (kept, stats) = alloc_meter::measure(f);
    drop(kept);
    (stats.allocations as usize, stats.live_bytes as isize)
}

fn zip_archive(n_entries: usize) -> Vec<u8> {
    let config = ipg_corpus::zip::Config { n_entries, payload_len: 64, ..Default::default() };
    ipg_corpus::zip::generate(&config).bytes
}

/// The arena's record pools: nodes, builtin records, arrays, leaves,
/// blackboxes, shifts, children and attribute values.
const ARENA_POOLS: usize = 8;

#[test]
fn a_zip_parse_does_not_allocate_per_entry() {
    let g = parse_grammar(include_str!("../../ipg-formats/specs/zip.ipg")).unwrap();
    let parser = VmParser::new(&g);
    let (small, _) = warm_parse_allocations(&parser, &zip_archive(16));
    let (large, _) = warm_parse_allocations(&parser, &zip_archive(64));
    // Four times the records is two doublings of each arena pool at most.
    assert!(
        large <= small + 2 * ARENA_POOLS,
        "16 entries: {small} allocations, 64 entries: {large}"
    );
}

#[test]
fn a_warm_zip_parse_holds_no_more_than_with_four_records_per_builtin() {
    let g = parse_grammar(include_str!("../../ipg-formats/specs/zip.ipg")).unwrap();
    let parser = VmParser::new(&g);
    // What the parse held when a builtin result was a node, a leaf, a
    // child id and four pooled values (29,520 and 118,080 bytes); one
    // 40-byte record per builtin holds 23,616 and 94,464.
    for (entries, before) in [(16, 29_520), (64, 118_080)] {
        let (allocations, bytes) = warm_parse_allocations(&parser, &zip_archive(entries));
        assert!(
            bytes <= before,
            "{entries} entries: {allocations} allocations hold {bytes} bytes (was {before})"
        );
    }
}

#[test]
fn an_elf_parse_holds_less_than_150_kb() {
    let g = parse_grammar(include_str!("../../ipg-formats/specs/elf.ipg")).unwrap();
    let parser = VmParser::new(&g);
    let file = ipg_corpus::elf::generate(&ipg_corpus::elf::Config::default()).bytes;
    let (allocations, bytes) = warm_parse_allocations(&parser, &file);
    // Half of what the parse held with every node's attribute environment
    // stored inline in its record.
    assert!(
        bytes <= 150 * 1024,
        "a {}-byte elf parse made {allocations} allocations and holds {bytes} bytes",
        file.len()
    );
}

#[test]
fn a_zip_parse_after_a_dropped_tree_allocates_no_arena_pools() {
    let g = parse_grammar(include_str!("../../ipg-formats/specs/zip.ipg")).unwrap();
    let parser = VmParser::new(&g);
    let archive = zip_archive(64);
    let (fresh, _) = warm_parse_allocations(&parser, &archive);
    // The tree of the warm-up parse above has dropped: its arena is the
    // one the next parse fills.
    let (recycled, bytes) = measure(|| parser.parse(&archive).expect("parse succeeds"));
    // A parse with no arena to recycle allocates each pool a zip tree uses
    // (all but arrays and blackboxes) at least once; one after a dropped
    // tree allocates none, and since the zip grammar has no `for` or
    // `star` term, nothing else either.
    assert!(fresh >= ARENA_POOLS - 2, "fresh arena: {fresh} allocations");
    assert_eq!((recycled, bytes), (0, 0), "allocations and bytes after a dropped tree");
}

#[test]
fn an_elf_parse_after_a_dropped_tree_allocates_no_arena_pools() {
    let g = parse_grammar(include_str!("../../ipg-formats/specs/elf.ipg")).unwrap();
    let parser = VmParser::new(&g);
    let file = ipg_corpus::elf::generate(&ipg_corpus::elf::Config::default()).bytes;
    // Each `for` term with at least one element allocates its element
    // list, and frees it once the array is built.
    let lists = {
        let tree = parser.parse(&file).expect("parse succeeds").root().to_tree();
        tree.preorder().filter_map(|t| t.as_array()).filter(|a| !a.is_empty()).count()
    };
    let (fresh, _) = warm_parse_allocations(&parser, &file);
    let (recycled, bytes) = measure(|| parser.parse(&file).expect("parse succeeds"));
    // A parse with no arena to recycle allocates each pool an elf tree
    // uses (all but blackboxes) at least once; one after a dropped tree
    // allocates only the element lists, byte scans included, and holds
    // nothing once they are freed.
    assert!(fresh >= lists + ARENA_POOLS - 1, "fresh arena: {fresh} allocations");
    assert_eq!((recycled, bytes), (lists, 0), "allocations and bytes after a dropped tree");
}

#[test]
fn a_tree_dropped_before_its_session_is_recycled_too() {
    let g = parse_grammar(include_str!("../../ipg-formats/specs/zip.ipg")).unwrap();
    let parser = VmParser::new(&g);
    let archive = zip_archive(16);
    drop(parser.parse(&archive).expect("warm-up parse succeeds"));
    let mut session = parser.streaming();
    assert!(session.feed(&archive).err().is_none());
    let Outcome::Done(tree) = session.finish() else { panic!("streamed parse fails") };
    // The tree's arena is parked while the session still holds the rest
    // of the workspace; the session hands that back without an arena.
    drop(tree);
    drop(session);
    let (allocations, bytes) = measure(|| parser.parse(&archive).expect("parse succeeds"));
    assert_eq!((allocations, bytes), (0, 0), "allocations and bytes after the session");
}

#[test]
fn an_arena_over_the_retention_bound_is_freed_on_drop() {
    let g = parse_grammar("S -> star B[0, EOI]; B := u8;").unwrap();
    let parser = VmParser::new(&g).memoize(false);
    let small = vec![7u8; 16];
    let huge = vec![7u8; 64 * 1024];
    drop(parser.parse(&small).expect("warm-up parse succeeds"));
    // A tree under the bound parks its arena: the bytes stay allocated.
    let (_, parked) = measure(|| drop(parser.parse(&vec![7u8; 512]).expect("parse succeeds")));
    assert!(parked > 0, "a small tree's arena was not kept");
    // 64 Ki nodes are far over the bound: dropping the tree frees its
    // arena rather than parking megabytes on the thread.
    let (tree, held) = alloc_meter::measure(|| parser.parse(&huge).expect("parse succeeds"));
    let ((), dropped) = alloc_meter::measure(|| drop(tree));
    let (held, left) = (held.live_bytes, held.live_bytes + dropped.live_bytes);
    assert!(held > 1024 * 1024, "the huge tree holds only {held} B");
    assert!(left <= 0, "{left} B stayed allocated after the drop");
    assert!(parser.parse(&small).is_ok());
}

#[test]
fn a_tree_dropped_on_another_thread_recycles_there() {
    let g = parse_grammar(include_str!("../../ipg-formats/specs/zip.ipg")).unwrap();
    let parser = VmParser::new(&g);
    let archive = zip_archive(16);
    let dump = |tree: &ipg_core::interp::vm::ParseTree| format!("{:?}", tree.root().to_tree());
    let tree = parser.parse(&archive).expect("parse succeeds");
    let expected = dump(&tree);
    std::thread::scope(|s| {
        s.spawn(|| {
            // Warm this thread's workspace, keeping its tree alive.
            let own = parser.parse(&archive).expect("parse succeeds");
            drop(tree);
            // The arena parked on this thread serves its next parse.
            let (_, bytes) = measure(|| {
                let tree = parser.parse(&archive).expect("parse succeeds");
                assert_eq!(dump(&tree), expected);
                tree
            });
            assert_eq!(bytes, 0, "the parse after the drop holds new memory");
            assert_eq!(dump(&own), expected);
        });
    });
    // The parsing thread has no arena to recycle, and still parses.
    assert_eq!(dump(&parser.parse(&archive).expect("parse succeeds")), expected);
}

#[test]
fn a_gif_parse_holds_no_more_than_before_chains_and_recycles_its_arena() {
    let g = parse_grammar(include_str!("../../ipg-formats/specs/gif.ipg")).unwrap();
    let parser = VmParser::new(&g);
    let config = ipg_corpus::gif::Config {
        n_frames: 8,
        data_per_frame: 2048,
        seed: 1,
        ..Default::default()
    };
    let file = ipg_corpus::gif::generate(&config).bytes;
    // What the parse held when every level of a sub-block list had a frame
    // of its own: a chain keeps its levels on a stack the workspace
    // recycles, and writes the same records.
    let (fresh, bytes) = warm_parse_allocations(&parser, &file);
    assert!(bytes <= 38_688, "{fresh} allocations hold {bytes} bytes (was 38,688)");
    // The gif grammar has no `for` or `star` term: after a dropped tree a
    // parse allocates nothing, the chains' level stack included.
    let (recycled, bytes) = measure(|| parser.parse(&file).expect("parse succeeds"));
    assert_eq!((recycled, bytes), (0, 0), "allocations and bytes after a dropped tree");
}
