//! Message payloads and their encoded size.
//!
//! The CONGEST model restricts every message to `O(log n)` bits, so the
//! simulator needs to know how large a message would be on the wire. The
//! [`Payload`] trait reports a conservative encoded size in bits for each
//! message; the [`Network`](crate::Network) uses it to account bandwidth and
//! to flag CONGEST violations.

use std::fmt::Debug;

/// A message that can be sent over an edge in one round.
///
/// Payloads are `'static` owned data: the fault-injection layer
/// ([`crate::FaultPlan`]) may hold a message back for several rounds, so a
/// message cannot borrow from the round that produced it. (`'static` is
/// also what lets the delivery path pool its arena buffers by
/// `TypeId` — see the flat-arena notes on [`crate::Network`]'s module.)
///
/// `encoded_bits` sits on the per-message hot path of every round; keep
/// implementations cheap and `#[inline]`.
pub trait Payload: Clone + Debug + 'static {
    /// A conservative upper bound on the number of bits needed to encode the
    /// message.
    fn encoded_bits(&self) -> usize;
}

/// Number of bits needed to write a non-negative integer (at least 1).
#[inline]
pub fn bits_for(value: u64) -> usize {
    (64 - value.leading_zeros() as usize).max(1)
}

impl Payload for () {
    fn encoded_bits(&self) -> usize {
        1
    }
}

impl Payload for bool {
    fn encoded_bits(&self) -> usize {
        1
    }
}

macro_rules! impl_payload_uint {
    ($($ty:ty),*) => {
        $(impl Payload for $ty {
            #[inline]
            fn encoded_bits(&self) -> usize {
                bits_for(*self as u64)
            }
        })*
    };
}

impl_payload_uint!(u8, u16, u32, u64, usize);

macro_rules! impl_payload_int {
    ($($ty:ty),*) => {
        $(impl Payload for $ty {
            #[inline]
            fn encoded_bits(&self) -> usize {
                // one sign bit plus the magnitude
                1 + bits_for(self.unsigned_abs() as u64)
            }
        })*
    };
}

impl_payload_int!(i8, i16, i32, i64, isize);

impl Payload for f64 {
    fn encoded_bits(&self) -> usize {
        64
    }
}

impl<T: Payload> Payload for Option<T> {
    fn encoded_bits(&self) -> usize {
        1 + self.as_ref().map_or(0, Payload::encoded_bits)
    }
}

impl<A: Payload, B: Payload> Payload for (A, B) {
    fn encoded_bits(&self) -> usize {
        self.0.encoded_bits() + self.1.encoded_bits()
    }
}

impl<A: Payload, B: Payload, C: Payload> Payload for (A, B, C) {
    fn encoded_bits(&self) -> usize {
        self.0.encoded_bits() + self.1.encoded_bits() + self.2.encoded_bits()
    }
}

impl<A: Payload, B: Payload, C: Payload, D: Payload> Payload for (A, B, C, D) {
    fn encoded_bits(&self) -> usize {
        self.0.encoded_bits()
            + self.1.encoded_bits()
            + self.2.encoded_bits()
            + self.3.encoded_bits()
    }
}

impl<T: Payload> Payload for Vec<T> {
    fn encoded_bits(&self) -> usize {
        // length prefix plus the elements
        bits_for(self.len() as u64) + self.iter().map(Payload::encoded_bits).sum::<usize>()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bits_for_small_values() {
        assert_eq!(bits_for(0), 1);
        assert_eq!(bits_for(1), 1);
        assert_eq!(bits_for(2), 2);
        assert_eq!(bits_for(255), 8);
        assert_eq!(bits_for(256), 9);
    }

    #[test]
    fn unsigned_payload_sizes() {
        assert_eq!(5u32.encoded_bits(), 3);
        assert_eq!(0usize.encoded_bits(), 1);
        assert_eq!(u64::MAX.encoded_bits(), 64);
    }

    #[test]
    fn signed_payload_sizes() {
        assert_eq!((-5i32).encoded_bits(), 1 + 3);
        assert_eq!(0i64.encoded_bits(), 2);
    }

    #[test]
    fn composite_payload_sizes() {
        assert_eq!((3u32, true).encoded_bits(), 2 + 1);
        assert_eq!(Some(3u32).encoded_bits(), 1 + 2);
        assert_eq!(None::<u32>.encoded_bits(), 1);
        let v = vec![1u32, 2, 3];
        assert_eq!(v.encoded_bits(), bits_for(3) + 1 + 2 + 2);
        assert_eq!(().encoded_bits(), 1);
        assert_eq!(true.encoded_bits(), 1);
        assert_eq!(1.5f64.encoded_bits(), 64);
        assert_eq!((1u8, 2u8, 3u8, 4u8).encoded_bits(), 1 + 2 + 2 + 3);
    }
}
