//! Message tags with separated namespaces.
//!
//! A [`Tag`] combines a 32-bit *context* (communicator id — the same trick
//! MPI uses to keep collective traffic from colliding with user traffic)
//! with a 32-bit user tag.
//!
//! # Tag-class map
//!
//! The high nibble of the user half is the tag's **class**.  This is the
//! single authoritative map; every subsystem that claims a class documents
//! it here:
//!
//! | class | constant                | owner / meaning                               |
//! |-------|-------------------------|-----------------------------------------------|
//! | `0x0` | (none)                  | plain user traffic, collectives, control ctxs |
//! | `0x4` | [`Tag::CLASS_MOVE_RAW`] | raw data-move halves (`meta_chaos::datamove`) |
//! | `0x5` | [`Tag::CLASS_RELIABLE_DATA`] | reliable-transport DATA frames (`reliable`) |
//! | `0x6` | [`Tag::CLASS_RELIABLE_CTRL`] | reliable ACK / NACK / GIVEUP frames     |
//! | `0x7` | [`Tag::CLASS_ONESIDED_CTRL`] | one-sided GET request/reply RPC (`onesided`) |
//!
//! Classes `0x5`–`0x7` are intercepted by the protocol intake in user
//! contexts and never reach a raw `recv`; fault plans target classes via
//! [`crate::fault::FaultPlan::classes`] (the default mask covers `0x5` and
//! `0x6`; `0x7` is control-plane and excluded by default).  One-sided PUT
//! payloads do not get their own class: they ride reliable `0x5` streams
//! whose *stream id* carries the sink bits (see
//! `crate::onesided::is_sink_tag`).

/// A message tag: `(context, user)`.
///
/// Contexts `0..=15` are reserved for the library itself; user communicators
/// are assigned contexts from 16 upward by [`crate::group::Group::context`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Tag(pub u64);

impl Tag {
    /// Context used by world-level point-to-point traffic.
    pub const WORLD_CTX: u32 = 0;
    /// Context used by collective implementations.
    pub const COLL_CTX: u32 = 1;
    /// Context used by the shutdown/poison protocol.
    pub const CONTROL_CTX: u32 = 2;
    /// First context available to user communicators.
    pub const FIRST_USER_CTX: u32 = 16;

    /// Tag class (high nibble of the user half) used by raw data-move
    /// traffic (`meta_chaos::datamove`).
    pub const CLASS_MOVE_RAW: u32 = 0x4;
    /// Tag class carrying reliable-transport DATA frames
    /// (see [`crate::reliable`]).
    ///
    /// **Reserved:** in user contexts, traffic in classes `0x5`/`0x6` is
    /// intercepted by the reliable-protocol intake; raw sends must use
    /// other classes.
    pub const CLASS_RELIABLE_DATA: u32 = 0x5;
    /// Tag class carrying reliable-transport control frames
    /// (ACK / NACK / GIVEUP).  Reserved like [`Tag::CLASS_RELIABLE_DATA`].
    pub const CLASS_RELIABLE_CTRL: u32 = 0x6;
    /// Tag class carrying one-sided control traffic (GET request/reply —
    /// see [`crate::onesided`]).  Reserved like
    /// [`Tag::CLASS_RELIABLE_DATA`]; excluded from the default fault mask
    /// because it is pure control plane.
    pub const CLASS_ONESIDED_CTRL: u32 = 0x7;

    /// Build a tag from a context and a user tag value.
    #[inline]
    pub fn new(ctx: u32, user: u32) -> Self {
        Tag(((ctx as u64) << 32) | user as u64)
    }

    /// A plain user tag in the world context.
    #[inline]
    pub fn user(user: u32) -> Self {
        Tag::new(Self::WORLD_CTX, user)
    }

    /// The context half of this tag.
    #[inline]
    pub fn ctx(self) -> u32 {
        (self.0 >> 32) as u32
    }

    /// The user half of this tag.
    #[inline]
    pub fn value(self) -> u32 {
        self.0 as u32
    }

    /// The class of this tag: the high nibble of the user half.
    ///
    /// Classes partition user-context traffic into kinds a
    /// [`crate::fault::FaultPlan`] can target independently — raw
    /// data-move payloads, reliable DATA frames, reliable control frames,
    /// and everything else (class 0).
    #[inline]
    pub fn class(self) -> u32 {
        self.value() >> 28
    }
}

impl From<u32> for Tag {
    fn from(user: u32) -> Self {
        Tag::user(user)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tag_roundtrip() {
        let t = Tag::new(17, 0xdead_beef);
        assert_eq!(t.ctx(), 17);
        assert_eq!(t.value(), 0xdead_beef);
    }

    #[test]
    fn user_tag_is_world_context() {
        let t = Tag::user(7);
        assert_eq!(t.ctx(), Tag::WORLD_CTX);
        assert_eq!(t.value(), 7);
        assert_eq!(Tag::from(7u32), t);
    }

    #[test]
    fn distinct_contexts_never_collide() {
        assert_ne!(Tag::new(Tag::COLL_CTX, 5), Tag::new(Tag::WORLD_CTX, 5));
    }

    #[test]
    fn class_is_high_nibble() {
        assert_eq!(Tag::new(17, 0x4000_0001).class(), Tag::CLASS_MOVE_RAW);
        assert_eq!(Tag::new(17, 0x5fff_ffff).class(), Tag::CLASS_RELIABLE_DATA);
        assert_eq!(Tag::new(17, 0x6000_0000).class(), Tag::CLASS_RELIABLE_CTRL);
        assert_eq!(Tag::new(17, 0x7000_0001).class(), Tag::CLASS_ONESIDED_CTRL);
        assert_eq!(Tag::user(7).class(), 0);
    }
}
