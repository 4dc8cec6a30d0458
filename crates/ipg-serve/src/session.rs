//! Streaming sessions. A session belongs to whoever opened it — a
//! connection (`proto`'s `ConnState`) or a [`crate::StreamHandle`] — and
//! each OPEN, FEED and FINISH runs on its owner's thread through the
//! shared admission path, so a suspended frame stack never crosses
//! threads. This module holds those request bodies and the session
//! lifecycle counters: every session ends exactly once, as closed (ran to
//! a verdict, or torn by a caught panic), evicted (idle past its
//! deadline, or let go by an owner that went away) or sealed (let go
//! while the server drains).

use crate::pool::Shared;
use crate::stats::Counters;
use crate::{ParseSummary, Response};
use ipg_core::interp::vm::{Outcome, Session};
use ipg_core::Error;
use ipg_formats::Compiled;
use std::sync::atomic::Ordering;
use std::time::Instant;

/// A live streaming session and the rolling deadline past which it is
/// evicted. The session holds its generation's compiled program, so a
/// hot reload never pulls the program out from under it.
pub(crate) struct Active {
    session: Session,
    deadline: Instant,
}

impl Active {
    /// `true` once the session has sat idle past its deadline.
    pub(crate) fn expired(&self, now: Instant) -> bool {
        self.deadline <= now
    }
}

impl Shared {
    /// Opens a session: the reply, and the session the caller now owns
    /// when the reply is `Opened`.
    pub(crate) fn open(&self, vm: &Compiled) -> (Response, Option<Active>) {
        let mut opened = None;
        let resp = self.run("open", false, || {
            let session = vm.vm().streaming().max_steps(self.max_steps).max_bytes(self.max_bytes);
            opened = Some(Active { session, deadline: Instant::now() + self.session_deadline });
            Counters::add(&self.counters.sessions_opened, 1);
            Counters::add(&self.counters.live_sessions, 1);
            Response::Opened { id: self.next_session.fetch_add(1, Ordering::Relaxed) }
        });
        if !matches!(resp, Response::Opened { .. }) {
            self.close(opened.take());
        }
        (resp, opened)
    }

    /// Runs a FEED (`Some(chunk)`) or a FINISH (`None`) on session `id`,
    /// held in the caller's `slot`. The slot is emptied when the session
    /// ends: finished, failed, sealed by a drain, evicted past its
    /// deadline, or torn by a caught panic. An empty slot answers the
    /// typed unknown-session error.
    pub(crate) fn session_request(
        &self,
        id: u64,
        slot: &mut Option<Active>,
        chunk: Option<&[u8]>,
    ) -> Response {
        if slot.as_ref().is_some_and(|a| a.expired(Instant::now())) {
            self.evict(slot.take());
        }
        let op = if chunk.is_some() { "feed" } else { "finish" };
        let resp = self.run(op, false, || {
            let Some(active) = slot.as_mut() else {
                return Response::Error(unknown_session(id));
            };
            let c = &self.counters;
            let Some(bytes) = chunk else {
                let outcome = active.session.finish();
                let stats = active.session.stats();
                let suspends = active.session.suspends();
                let bytes = active.session.buffered();
                Counters::add(&c.steps, stats.steps);
                Counters::add(&c.suspends, suspends);
                self.close(slot.take());
                return match outcome {
                    Outcome::Done(tree) => {
                        Counters::add(&c.parses_ok, 1);
                        Response::Done(ParseSummary {
                            steps: stats.steps,
                            suspends,
                            nodes: tree.arena().len(),
                            bytes,
                        })
                    }
                    Outcome::Error(e) => {
                        Counters::add(&c.parses_err, 1);
                        Response::Error(e)
                    }
                    Outcome::NeedInput { .. } => unreachable!("finish never needs input"),
                };
            };
            Counters::add(&c.bytes_in, bytes.len() as u64);
            active.deadline = Instant::now() + self.session_deadline;
            match active.session.feed(bytes) {
                Outcome::NeedInput { hint } => Response::NeedInput { hint },
                Outcome::Error(e) => {
                    self.close(slot.take());
                    Counters::add(&c.parses_err, 1);
                    Response::Error(e)
                }
                Outcome::Done(_) => unreachable!("feed never completes a session"),
            }
        });
        match resp {
            Response::GoAway => self.release(slot.take()),
            Response::Error(Error::WorkerPanic(_)) => self.close(slot.take()),
            _ => {}
        }
        resp
    }

    /// Counts a session that ended: ran to a verdict, or was torn by a
    /// caught panic. `None` (no session) counts nothing.
    fn close(&self, session: Option<Active>) {
        if session.is_some() {
            Counters::add(&self.counters.sessions_closed, 1);
            Counters::add(&self.counters.live_sessions, 1u64.wrapping_neg());
        }
    }

    /// Evicts a session that sat idle past its deadline.
    pub(crate) fn evict(&self, session: Option<Active>) {
        if session.is_some() {
            Counters::add(&self.counters.sessions_evicted, 1);
            Counters::add(&self.counters.live_sessions, 1u64.wrapping_neg());
        }
    }

    /// Lets go of a session its owner will not use again: sealed if the
    /// server is draining (the owner is, or will be, told GOAWAY),
    /// evicted otherwise (the owner went away without finishing it).
    pub(crate) fn release(&self, session: Option<Active>) {
        if session.is_some() && self.is_draining() {
            Counters::add(&self.counters.sessions_sealed, 1);
            self.close(session);
        } else {
            self.evict(session);
        }
    }
}

fn unknown_session(id: u64) -> Error {
    Error::Session(format!("unknown session {id} (never opened, finished, or evicted)"))
}
