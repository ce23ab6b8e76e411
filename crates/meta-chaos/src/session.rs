//! Resumable coupled transfers: a per-port recovery session that drives a
//! sequence of data-move steps to completion across rank crashes and
//! supervisor restarts.
//!
//! A [`RecoverySession`] runs the transfer engine of the one-shot
//! [`crate::datamove`] halves with a checkpointed floor instead of a
//! manifest handshake, so a crashed rank — restarted by the world
//! supervisor ([`mcsim::World::with_supervisor`], which also arms the
//! heartbeats whose evictions drive the retries) from its endpoint's
//! checkpoints ([`Endpoint::ckpt_state`]) — re-joins and the pair
//! replays only what was never committed.  Do not mix plain
//! [`crate::data_move_send`]/[`crate::data_move_recv`] calls with a
//! session on the same schedule: the session owns the stream's epoch
//! space.

use std::any::Any;

use mcsim::note;
use mcsim::prelude::Endpoint;
use mcsim::span::Phase;
use mcsim::wire::Wire;

use crate::adapter::McObject;
use crate::engine::{self, spanned, Expect, M_FIN, M_NAK, M_POS};
use crate::error::McError;
use crate::schedule::Schedule;

/// A resumable multi-step transfer session over one bound port.
///
/// Create one session per port per rank and drive it through numbered
/// steps ([`RecoverySession::send_step`] / [`RecoverySession::recv_step`]),
/// then close it with [`RecoverySession::finish`].  On a supervisor
/// restart the closure re-creates the session; checkpointed progress
/// (`{port}:src_s`, `{port}:dst_c`, plus the schedule and object
/// snapshots) brings it back to where the previous life stopped.
pub struct RecoverySession {
    port: String,
    /// Checkpoint keys `{port}:sched`, `{port}:obj`, `{port}:src_s` and
    /// `{port}:dst_c`, built once because every step writes one.
    sched_key: String,
    obj_key: String,
    src_key: String,
    dst_key: String,
}

impl RecoverySession {
    /// A session for `port`.
    pub fn new(port: &str) -> Self {
        let key = |what: &str| format!("{port}:{what}");
        RecoverySession {
            port: port.to_string(),
            sched_key: key("sched"),
            obj_key: key("obj"),
            src_key: key("src_s"),
            dst_key: key("dst_c"),
        }
    }

    /// Checkpoint the port's schedule so a restarted rank can restore it
    /// instead of re-running the (collective) build its peers will not
    /// repeat.
    pub fn checkpoint_schedule(&self, ep: &mut Endpoint, sched: &Schedule) {
        ep.ckpt_put_state(&self.sched_key, sched.clone());
    }

    /// The schedule checkpointed by a previous life, if any.
    pub fn restore_schedule(&self, ep: &Endpoint) -> Option<Schedule> {
        ep.ckpt_state::<Schedule>(&self.sched_key)
    }

    /// Checkpoint an object.  [`RecoverySession::recv_step`]
    /// re-checkpoints the destination after every committed half; call
    /// this once after creating an object so a crash before the first
    /// commit restores a well-defined state (and so collectively built
    /// objects are never rebuilt by a lone restarted rank).
    pub fn checkpoint_object<O: Any + Clone + Send>(&self, ep: &mut Endpoint, obj: &O) {
        ep.ckpt_put_state(&self.obj_key, obj.clone());
    }

    /// The object snapshot checkpointed by a previous life, if any.
    pub fn restore_object<O: Any + Clone>(&self, ep: &Endpoint) -> Option<O> {
        ep.ckpt_state::<O>(&self.obj_key)
    }

    /// Source-side step `k`: send every unconfirmed pair's half and wait
    /// for each receiver's position to pass the step, retrying across
    /// peer evictions until every pair confirms or the attempt budget
    /// runs out.
    pub fn send_step<T, S>(
        &mut self,
        ep: &mut Endpoint,
        sched: &Schedule,
        src: &S,
        k: u64,
    ) -> Result<(), McError>
    where
        T: Copy + Wire,
        S: McObject<T>,
    {
        let pairs = engine::side_pairs(sched, true)?;
        if pairs.is_empty() {
            return Ok(());
        }
        engine::check_epoch(src.epoch(), sched.src_epoch())?;
        let key = &self.src_key;
        let mut s = load_progress(ep, key, pairs.len());
        let pgs = engine::peers(sched, pairs);
        let st = engine::move_stream(sched);
        engine::with_retries(ep, &pgs, &mut s, k + 1, |ep, s| {
            // Post every unconfirmed pair's half *before* waiting on any
            // position, so no receiver's progress waits on another pair's
            // service order.
            let te = engine::step_epoch(ep, sched, k);
            let mut sent = vec![false; pgs.len()];
            let posted = engine::for_pending(s, k + 1, |i, _| {
                let pg = pgs[i];
                engine::post_one_half(ep, sched, src, te, pg, &pairs[i].1)?;
                engine::flush_halves(ep, st, [pg], note!("", peer = pg, te = te))?;
                sent[i] = true;
                Ok(())
            });
            let confirmed = engine::for_pending(s, k + 1, |i, s| {
                if !sent[i] {
                    return Ok(());
                }
                let (pg, seq) = (pgs[i], sched.seq());
                let detail = note!("confirm", seq = seq, peer = pg, step = k);
                spanned(ep, Phase::Manifest, detail, |ep| {
                    engine::await_pos(ep, pg, st, k, &mut s[i])
                })
            });
            store_progress(ep, key, s);
            posted.and(confirmed)
        })
    }

    /// Destination-side step `k`: stage every uncommitted pair's half
    /// and commit it into `dst`, checkpointing the object and the
    /// committed-step vector atomically, then answer with the new
    /// position.  Halves a previous life already committed never reach
    /// this step — `c` short-circuits them, and their replayed bytes
    /// are absorbed by the staging of whatever step runs next.
    pub fn recv_step<T, D>(
        &mut self,
        ep: &mut Endpoint,
        sched: &Schedule,
        dst: &mut D,
        k: u64,
    ) -> Result<(), McError>
    where
        T: Copy + Wire,
        D: McObject<T> + Clone + Send + 'static,
    {
        let pairs = engine::side_pairs(sched, false)?;
        if pairs.is_empty() {
            return Ok(());
        }
        engine::check_epoch(dst.epoch(), sched.dst_epoch())?;
        let key = &self.dst_key;
        let mut c = load_progress(ep, key, pairs.len());
        let pgs = engine::peers(sched, pairs);
        let st = engine::move_stream(sched);
        engine::with_retries(ep, &pgs, &mut c, k + 1, |ep, c| {
            engine::for_pending(c, k + 1, |i, c| {
                let (pg, runs, seq) = (pgs[i], &pairs[i].1, sched.seq());
                let detail = note!("", seq = seq, peer = pg, step = k);
                let expect = Expect::Step { k, pos: c[i] };
                let staged = spanned(ep, Phase::Stage, detail.clone(), |ep| {
                    engine::stage_half(ep, sched, pg, runs, expect)
                });
                let committed = staged.and_then(|parts| {
                    spanned(ep, Phase::Commit, detail, |ep| {
                        engine::commit_one_half(ep, dst, pg, runs, parts)
                    })
                });
                if let Err(e) = committed {
                    let _ = engine::post_ctrl(ep, pg, st, M_NAK, k);
                    return Err(e);
                }
                ep.record_transfer_committed();
                // No communication happens between here and the position
                // post, so the object, the vector, and the commit are
                // atomic with respect to scripted crashes.
                self.checkpoint_object(ep, dst);
                c[i] = k + 1;
                store_progress(ep, key, c);
                engine::post_ctrl(ep, pg, st, M_POS, k + 1)
            })
        })
    }

    /// Close the session after `steps` steps.  Senders post FIN to every
    /// pair; receivers keep serving replayed halves until every pair's
    /// FIN arrives, so a restarted peer always finds someone to answer.
    /// If the peer is gone for good after the retry budget — and this
    /// side's own obligations are met — the session closes anyway: the
    /// durable state is complete.
    pub fn finish(
        &mut self,
        ep: &mut Endpoint,
        sched: &Schedule,
        steps: u64,
    ) -> Result<(), McError> {
        let send = !sched.sends.is_empty();
        let pairs = if send { &sched.sends } else { &sched.recvs };
        if pairs.is_empty() {
            return Ok(());
        }
        let c = load_progress(ep, &self.dst_key, pairs.len());
        let pgs = engine::peers(sched, pairs);
        let st = engine::move_stream(sched);
        let mut closed = vec![0u64; pairs.len()];
        let r = engine::with_retries(ep, &pgs, &mut closed, 1, |ep, closed| {
            engine::for_pending(closed, 1, |i, closed| {
                if send {
                    engine::post_ctrl(ep, pgs[i], st, M_FIN, steps)?;
                } else {
                    let expect = Expect::Fin { pos: c[i] };
                    engine::stage_half(ep, sched, pgs[i], &pairs[i].1, expect)?;
                }
                closed[i] = 1;
                Ok(())
            })
        });
        match r {
            // Every step is confirmed (sender) or committed and
            // checkpointed (receiver): a peer still unreachable after that
            // many rounds has exited or is beyond recovery, and is owed
            // nothing.
            Err(e) if send || c.iter().all(|&v| v >= steps) => {
                let why = if send {
                    "undeliverable"
                } else {
                    "never arrived"
                };
                let port = &self.port;
                ep.mark(format!("session '{port}' finish: FIN {why} ({e})").into());
                Ok(())
            }
            r => r,
        }
    }
}

fn load_progress(ep: &Endpoint, key: &str, n: usize) -> Vec<u64> {
    ep.ckpt_state::<Vec<u64>>(key)
        .filter(|v| v.len() == n)
        .unwrap_or_else(|| vec![0; n])
}

fn store_progress(ep: &mut Endpoint, key: &str, v: &[u64]) {
    ep.ckpt_put_state(key, v.to_vec());
}
