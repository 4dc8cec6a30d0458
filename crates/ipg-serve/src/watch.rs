//! The grammar-directory watcher: polls a directory of `.ipg` sources
//! and drives [`Registry`] hot reloads under live traffic.
//!
//! No filesystem-notification dependency is available offline, so the
//! watcher polls: each tick it stats every `.ipg` file in the watched
//! directory and compares `(mtime, len)` against what it last saw. A
//! change is *confirmed* by content hash before any reload runs —
//! editors and atomic-rename writers touch mtimes without necessarily
//! changing bytes, and a reload that swaps a generation invalidates
//! in-flight pins for no reason.
//!
//! Failure policy (the self-healing contract):
//!
//! * a changed source that compiles swaps its generation in atomically
//!   (`reloads_ok`); in-flight sessions keep the generation they pinned
//!   at admission;
//! * a source that no longer compiles is refused (`reloads_rejected`,
//!   once per distinct content) and the previous generation stays
//!   current;
//! * a vanished file keeps its last good generation: the watcher only
//!   ever adds or replaces, never removes, so a half-finished
//!   atomic-rename window cannot unload a grammar.
//!
//! The counters are the report: a sweep returns nothing, so a rejected
//! file is visible in the stats snapshot and on the metrics endpoint,
//! not as an error from [`crate::Server::watch_dir`].
//!
//! The watcher thread seals itself when the server shuts down or starts
//! draining; [`crate::Server::drain`] joins it before returning, so no
//! reload can race the drain epilogue.

use crate::pool::Shared;
use crate::stats::Counters;
use crate::Registry;
use ipg_core::error::{Error, Result};
use ipg_core::ipgc::Fnv1a;
use std::collections::HashMap;
use std::path::{Path, PathBuf};
use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, SystemTime};

/// How often the watcher polls the directory between change sweeps.
pub const DEFAULT_POLL_INTERVAL: Duration = Duration::from_millis(50);

/// What the watcher last observed about one grammar file.
#[derive(Clone, PartialEq, Eq)]
struct Observed {
    mtime: Option<SystemTime>,
    len: u64,
    /// FNV-1a over the file contents — the confirmation step: a reload
    /// fires only when the bytes actually changed.
    content: u64,
}

/// Is this a file the watcher manages? Only `.ipg` sources; temporaries
/// and anything else in the directory are ignored.
fn is_grammar_file(path: &Path) -> bool {
    path.extension().is_some_and(|e| e == "ipg")
}

/// One watcher pass over `dir`: detect confirmed changes, reload them,
/// and count the outcomes in `reloads_ok` / `reloads_rejected`.
fn sweep(registry: &Registry, shared: &Shared, dir: &Path, seen: &mut HashMap<PathBuf, Observed>) {
    let Ok(entries) = std::fs::read_dir(dir) else {
        // A transiently unreadable directory (or one removed mid-run) is
        // not fatal: keep serving the generations we have.
        return;
    };
    for path in entries.flatten().map(|e| e.path()).filter(|p| is_grammar_file(p)) {
        let Ok(meta) = std::fs::metadata(&path) else { continue };
        let (mtime, len) = (meta.modified().ok(), meta.len());
        let cheap_same =
            seen.get(&path).is_some_and(|o| o.mtime == mtime && o.mtime.is_some() && o.len == len);
        // "Racily clean" guard (same idea as git's index): a rewrite
        // within the filesystem's timestamp granularity can leave
        // `(mtime, len)` unchanged, so a recently-modified file is
        // content-hashed even when the cheap fingerprint matches.
        let suspect = match mtime.and_then(|m| SystemTime::now().duration_since(m).ok()) {
            Some(age) => age < Duration::from_secs(2),
            None => true,
        };
        if cheap_same && !suspect {
            continue;
        }
        // The cheap fingerprint moved (or the file is new): confirm with
        // a content hash before reloading.
        let Ok(bytes) = std::fs::read(&path) else { continue };
        let mut content = Fnv1a::new();
        content.update(&bytes);
        let observed = Observed { mtime, len, content: content.finish() };
        if seen.get(&path).is_some_and(|o| o.content == observed.content) {
            seen.insert(path, observed);
            continue;
        }
        let outcome = match registry.load_path(&path) {
            Ok(_) => &shared.counters.reloads_ok,
            Err(_) => &shared.counters.reloads_rejected,
        };
        Counters::add(outcome, 1);
        // Remember the content either way, so an unchanged broken file is
        // not re-rejected (and re-counted) every tick.
        seen.insert(path, observed);
    }
}

/// A running directory watcher; joined by [`Watcher::seal`].
pub(crate) struct Watcher {
    thread: JoinHandle<()>,
}

impl Watcher {
    /// Performs the initial synchronous scan of `dir` (so the server
    /// starts with every grammar the directory holds) and spawns the
    /// polling thread.
    ///
    /// # Errors
    ///
    /// [`Error::Grammar`] when `dir` is not a readable directory. Per-file
    /// load failures in the initial scan are *not* fatal — they are
    /// counted exactly as for a live change — matching the self-healing
    /// contract: one broken source must not keep the service down.
    pub(crate) fn spawn(
        registry: Registry,
        shared: Arc<Shared>,
        dir: PathBuf,
        interval: Duration,
    ) -> Result<Watcher> {
        std::fs::read_dir(&dir)
            .map_err(|e| Error::Grammar(format!("cannot watch {}: {e}", dir.display())))?;
        let mut seen = HashMap::new();
        sweep(&registry, &shared, &dir, &mut seen);
        let thread = std::thread::Builder::new()
            .name("ipg-serve-watch".into())
            .spawn(move || {
                while !shared.shutdown.load(Ordering::Acquire) && !shared.is_draining() {
                    std::thread::sleep(interval);
                    sweep(&registry, &shared, &dir, &mut seen);
                }
            })
            .map_err(|e| Error::Grammar(format!("cannot spawn watcher thread: {e}")))?;
        Ok(Watcher { thread })
    }

    /// Joins the watcher thread. Callers set the shutdown or draining
    /// flag first; the thread observes it within one poll interval.
    pub(crate) fn seal(self) {
        let _ = self.thread.join();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn grammar_file_filter_takes_only_sources() {
        assert!(is_grammar_file(Path::new("/x/a.ipg")));
        assert!(!is_grammar_file(Path::new("/x/a.ipgc")));
        assert!(!is_grammar_file(Path::new("/x/a.ipg.tmp")));
        assert!(!is_grammar_file(Path::new("/x/README.md")));
    }
}
