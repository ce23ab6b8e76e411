//! The message envelope exchanged between ranks.

use crate::tag::Tag;

/// A processor index in the world (0-based, dense).
pub type Rank = usize;

/// How many leading payload bytes a drop tombstone preserves — enough for
/// the reliable layer to recognize which control frame was lost.
pub(crate) const DROP_PREFIX: usize = 16;

/// Largest [`Body::Inline`] payload: what fits in a 56-byte envelope.
pub const INLINE_MAX: usize = 23;

/// What a message carries.
#[derive(Debug, Clone)]
pub enum Body {
    /// Ordinary data payload.
    Data(Vec<u8>),
    /// Data payload with other holders: a reliable DATA frame sent under a
    /// fault plan, also kept by the sender's retransmission window.
    Shared(std::sync::Arc<Vec<u8>>),
    /// Data payload of at most [`INLINE_MAX`] bytes, held in the envelope
    /// so neither side touches the allocator: what typed sends, control
    /// frames and heartbeats build when their encoding fits.  Readers see
    /// both forms through [`Body::bytes`].
    Inline {
        /// Payload length.
        len: u8,
        /// Payload in the first `len` bytes.
        bytes: [u8; INLINE_MAX],
    },
    /// Tombstone left where a [`crate::fault::FaultPlan`] destroyed a
    /// message in flight.  The payload is gone; the envelope (and a short
    /// prefix of the original bytes) still arrives so loss detection can be
    /// modeled deterministically without wall-clock timers.  Raw receives
    /// never match tombstones — only the reliable layer consumes them.
    Dropped {
        /// Length of the destroyed payload.
        orig_len: usize,
        /// First few bytes of the destroyed payload (header recovery).
        prefix: Vec<u8>,
    },
    /// A rank panicked; receivers must propagate the failure instead of
    /// hanging forever on a receive that will never be matched.
    Poison(String),
}

impl Body {
    /// A data body holding a copy of `payload`: inline when it fits.
    pub(crate) fn copy_of(payload: &[u8]) -> Body {
        if payload.len() > INLINE_MAX {
            return Body::Data(payload.to_vec());
        }
        let mut bytes = [0; INLINE_MAX];
        bytes[..payload.len()].copy_from_slice(payload);
        Body::Inline {
            len: payload.len() as u8,
            bytes,
        }
    }

    /// The payload of a data body (either form); `None` for tombstones
    /// and poison.
    #[inline]
    pub fn bytes(&self) -> Option<&[u8]> {
        match self {
            Body::Data(d) => Some(d),
            Body::Shared(d) => Some(d),
            Body::Inline { len, bytes } => Some(&bytes[..*len as usize]),
            Body::Dropped { .. } | Body::Poison(_) => None,
        }
    }

    /// Payload length in bytes (0 for poison and drop tombstones).
    #[inline]
    pub(crate) fn len(&self) -> usize {
        self.bytes().map_or(0, <[u8]>::len)
    }

    /// Mutable view of a data body's payload (fault injection flips bits
    /// through it; a shared payload is copied first, unless unshared).
    pub(crate) fn bytes_mut(&mut self) -> Option<&mut [u8]> {
        match self {
            Body::Data(d) => Some(d),
            Body::Shared(d) => Some(std::sync::Arc::make_mut(d).as_mut_slice()),
            Body::Inline { len, bytes } => Some(&mut bytes[..*len as usize]),
            Body::Dropped { .. } | Body::Poison(_) => None,
        }
    }

    /// The payload of a data body as an owned buffer: a heap buffer is
    /// handed over (a shared one if unshared), anything else copied out.
    #[inline]
    pub(crate) fn into_vec(self) -> Vec<u8> {
        match self {
            Body::Data(d) => d,
            Body::Shared(d) => std::sync::Arc::unwrap_or_clone(d),
            other => other.bytes().expect("a data body").to_vec(),
        }
    }
}

/// A message in flight between two ranks.
#[derive(Debug)]
pub struct Message {
    /// Global rank of the sender.
    pub src: Rank,
    /// Tag the sender attached.
    pub tag: Tag,
    /// Payload (or poison marker).
    pub body: Body,
    /// Virtual time at which the message becomes available at the receiver
    /// (sender clock at send + latency + size / bandwidth).
    pub arrival: f64,
}

// Mailboxes and stashes hold envelopes by value: the inline form must not
// grow them.
const _: () = assert!(std::mem::size_of::<Message>() == 56);
// Staged halves hold delivered payloads: no bigger than a `Vec`.
const _: () = assert!(std::mem::size_of::<crate::reliable::Payload>() == 24);

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn message_len() {
        let m = Message {
            src: 0,
            tag: Tag::user(0),
            body: Body::Data(vec![1, 2, 3]),
            arrival: 0.0,
        };
        assert_eq!(m.body.len(), 3);
        let p = Message {
            src: 0,
            tag: Tag::user(0),
            body: Body::Poison("x".into()),
            arrival: 0.0,
        };
        assert_eq!(p.body.len(), 0);
    }

    #[test]
    fn copy_of_inlines_exactly_what_fits() {
        for n in [0, 1, INLINE_MAX, INLINE_MAX + 1, 100] {
            let payload: Vec<u8> = (0..n as u8).collect();
            let body = Body::copy_of(&payload);
            assert_eq!(
                matches!(body, Body::Inline { .. }),
                n <= INLINE_MAX,
                "n={n}"
            );
            assert_eq!(body.bytes(), Some(&payload[..]));
            assert_eq!(body.into_vec(), payload);
        }
    }
}
