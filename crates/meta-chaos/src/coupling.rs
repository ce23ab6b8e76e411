//! Named-port coupling of data-parallel programs.
//!
//! The paper's conclusion sketches coupling data-parallel programs to
//! object systems (CORBA) with Meta-Chaos as the transport; its companion
//! work (Ranganathan et al., ICS'96) couples time-stepped data-parallel
//! programs.  This module provides the minimal mechanism both need: a
//! registry of *named ports*, each holding a reusable [`Schedule`], so a
//! program can `put("boundary", …)` / `get("boundary", …)` without
//! re-specifying regions every time — the "Unix pipe" analogy of §5.4.

use std::collections::HashMap;

use mcsim::prelude::Endpoint;
use mcsim::wire::Wire;

use crate::adapter::McObject;
use crate::datamove::{data_move_recv, data_move_send};
use crate::error::McError;
use crate::schedule::Schedule;

/// A registry of named, reusable transfer schedules.
#[derive(Debug, Default)]
pub struct Coupler {
    ports: HashMap<String, Schedule>,
}

impl Coupler {
    /// An empty registry.
    pub fn new() -> Self {
        Coupler::default()
    }

    /// Register `sched` under `name`, returning the schedule it displaced
    /// (if the port was already bound).  Use [`Coupler::try_bind`] to treat
    /// rebinding as an error instead.
    pub fn bind(&mut self, name: impl Into<String>, sched: Schedule) -> Option<Schedule> {
        self.ports.insert(name.into(), sched)
    }

    /// Register `sched` under `name` only if the port is free; an occupied
    /// port reports [`McError::PortAlreadyBound`] and keeps its binding.
    pub fn try_bind(&mut self, name: impl Into<String>, sched: Schedule) -> Result<(), McError> {
        let name = name.into();
        match self.ports.entry(name.clone()) {
            std::collections::hash_map::Entry::Occupied(_) => {
                Err(McError::PortAlreadyBound { port: name })
            }
            std::collections::hash_map::Entry::Vacant(v) => {
                v.insert(sched);
                Ok(())
            }
        }
    }

    /// Remove a binding, returning its schedule (`None` if the port was
    /// not bound — unbinding is idempotent).
    pub fn unbind(&mut self, name: &str) -> Option<Schedule> {
        self.ports.remove(name)
    }

    /// Look up a port.
    pub fn port(&self, name: &str) -> Option<&Schedule> {
        self.ports.get(name)
    }

    /// Names of all bound ports, sorted.
    pub fn names(&self) -> Vec<&str> {
        let mut v: Vec<&str> = self.ports.keys().map(|s| s.as_str()).collect();
        v.sort_unstable();
        v
    }

    /// Send this program's half of port `name` from `src`.
    ///
    /// Returns [`McError::UnboundPort`] (without communicating) if the
    /// port was never bound, and the transport outcomes of
    /// [`data_move_send`] otherwise.
    pub fn put<T, S>(&self, ep: &mut Endpoint, name: &str, src: &S) -> Result<(), McError>
    where
        T: Copy + Wire,
        S: McObject<T>,
    {
        let Some(sched) = self.ports.get(name) else {
            return Err(McError::UnboundPort {
                port: name.to_string(),
            });
        };
        ep.mark(format!("coupler op=put port={name} seq={}", sched.seq()).into());
        data_move_send(ep, sched, src)
    }

    /// Receive this program's half of port `name` into `dst`.
    ///
    /// Returns [`McError::UnboundPort`] (without communicating) if the
    /// port was never bound, and the transport outcomes of
    /// [`data_move_recv`] otherwise.
    pub fn get<T, D>(&self, ep: &mut Endpoint, name: &str, dst: &mut D) -> Result<(), McError>
    where
        T: Copy + Wire,
        D: McObject<T>,
    {
        let Some(sched) = self.ports.get(name) else {
            return Err(McError::UnboundPort {
                port: name.to_string(),
            });
        };
        ep.mark(format!("coupler op=get port={name} seq={}", sched.seq()).into());
        data_move_recv(ep, sched, dst)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mcsim::group::Group;

    #[test]
    fn bind_and_lookup() {
        let mut c = Coupler::new();
        assert!(c.port("x").is_none());
        let sched = Schedule::new(Group::world(2), 0, vec![], vec![], vec![], 0);
        assert!(c.bind("x", sched.clone()).is_none());
        assert!(c.bind("a", sched).is_none());
        assert!(c.port("x").is_some());
        assert_eq!(c.names(), vec!["a", "x"]);
    }

    #[test]
    fn rebind_returns_displaced_schedule() {
        let mut c = Coupler::new();
        let s1 = Schedule::new(Group::world(2), 1, vec![], vec![], vec![], 0);
        let s2 = Schedule::new(Group::world(2), 2, vec![], vec![], vec![], 0);
        assert!(c.bind("p", s1.clone()).is_none());
        let displaced = c.bind("p", s2.clone()).expect("rebind displaces");
        assert_eq!(displaced.seq(), 1);
        assert_eq!(c.port("p").unwrap().seq(), 2);
    }

    #[test]
    fn try_bind_refuses_occupied_port() {
        let mut c = Coupler::new();
        let s1 = Schedule::new(Group::world(2), 1, vec![], vec![], vec![], 0);
        let s2 = Schedule::new(Group::world(2), 2, vec![], vec![], vec![], 0);
        c.try_bind("p", s1).unwrap();
        match c.try_bind("p", s2) {
            Err(McError::PortAlreadyBound { port }) => assert_eq!(port, "p"),
            other => panic!("expected PortAlreadyBound, got {other:?}"),
        }
        // The original binding is untouched.
        assert_eq!(c.port("p").unwrap().seq(), 1);
    }

    #[test]
    fn unbind_is_idempotent_and_returns_schedule() {
        let mut c = Coupler::new();
        let s = Schedule::new(Group::world(2), 5, vec![], vec![], vec![], 0);
        c.bind("p", s);
        let taken = c.unbind("p").expect("was bound");
        assert_eq!(taken.seq(), 5);
        assert!(c.unbind("p").is_none());
        assert!(c.port("p").is_none());
        // A freed port can be try_bound again.
        c.try_bind("p", taken).unwrap();
        assert!(c.port("p").is_some());
    }
}
