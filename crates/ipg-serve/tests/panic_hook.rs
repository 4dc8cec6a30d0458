//! The quiet panic hook is keyed on the request, not the thread: a panic
//! caught inside a guarded request body stays silent, and every other
//! panic — on a thread that also serves requests, or on any other thread
//! — still reaches the hook that was installed before the server started.
//! One test in its own binary, because the hook is process-wide.

use ipg_core::Error;
use ipg_serve::fault::FaultPlan;
use ipg_serve::{Config, Registry, Server};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

static SEEN: AtomicUsize = AtomicUsize::new(0);

#[test]
fn panics_outside_a_guarded_request_reach_the_previous_hook() {
    std::panic::set_hook(Box::new(|_| {
        SEEN.fetch_add(1, Ordering::SeqCst);
    }));
    let registry = Registry::new();
    registry.register("dns", ipg_formats::registry::corpus_entry("dns").handle());
    let plan = Arc::new(FaultPlan::new(0x400C).panic_per_mille(1000));
    let server =
        Server::with_registry(Config { faults: Some(plan), ..Config::default() }, registry);

    // A panic inside a request: caught, typed, and silent.
    let err = server.parse("dns", b"\x12\x34").expect_err("injected panic");
    assert!(matches!(err, Error::WorkerPanic(_)), "{err:?}");
    assert_eq!(SEEN.load(Ordering::SeqCst), 0, "a caught request panic reached the hook");

    // The same thread, outside a request: the previous hook sees it.
    assert!(std::panic::catch_unwind(|| panic!("outside a request")).is_err());
    assert_eq!(SEEN.load(Ordering::SeqCst), 1);

    // Another thread, whatever its name: the previous hook sees it.
    let named = std::thread::Builder::new().name("ipg-serve-conn".into());
    assert!(named.spawn(|| panic!("not a request")).unwrap().join().is_err());
    assert_eq!(SEEN.load(Ordering::SeqCst), 2);

    // And a request after all that is still quiet.
    assert!(server.parse("dns", b"\x12\x34").is_err());
    assert_eq!(SEEN.load(Ordering::SeqCst), 2);
}
