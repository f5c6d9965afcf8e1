//! Identifier newtypes for subjects, fingers, sessions, and capture devices.
//!
//! These are deliberately small `Copy` types used as keys throughout the
//! study harness; see `fp-study` for how they index score sets.

use std::fmt;

/// A study participant. The DSN'13 study had 494 of these.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SubjectId(pub u32);

impl fmt::Display for SubjectId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "S{:04}", self.0)
    }
}

/// Which hand a finger belongs to.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Hand {
    /// The left hand.
    Left,
    /// The right hand.
    Right,
}

/// A digit on a hand, thumb through little finger.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Digit {
    /// The thumb.
    Thumb,
    /// The index (pointer) finger — the finger the DSN'13 genuine-score
    /// analysis is based on.
    Index,
    /// The middle finger.
    Middle,
    /// The ring finger.
    Ring,
    /// The little finger.
    Little,
}

impl Digit {
    /// All digits in anatomical order.
    pub const ALL: [Digit; 5] = [
        Digit::Thumb,
        Digit::Index,
        Digit::Middle,
        Digit::Ring,
        Digit::Little,
    ];
}

/// A specific finger of a specific hand.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Finger {
    /// The hand.
    pub hand: Hand,
    /// The digit.
    pub digit: Digit,
}

impl Finger {
    /// The right index finger — the finger used for the paper's genuine
    /// match-score analysis ("the same user's right point fingers").
    pub const RIGHT_INDEX: Finger = Finger {
        hand: Hand::Right,
        digit: Digit::Index,
    };

    /// Creates a finger identifier.
    pub const fn new(hand: Hand, digit: Digit) -> Self {
        Finger { hand, digit }
    }

    /// All ten fingers, left thumb to right little finger.
    pub fn all() -> impl Iterator<Item = Finger> {
        [Hand::Left, Hand::Right].into_iter().flat_map(|hand| {
            Digit::ALL
                .into_iter()
                .map(move |digit| Finger { hand, digit })
        })
    }

    /// Stable small integer encoding in `0..10`, useful for seed derivation.
    pub fn index(&self) -> u64 {
        let h = match self.hand {
            Hand::Left => 0,
            Hand::Right => 5,
        };
        let d = match self.digit {
            Digit::Thumb => 0,
            Digit::Index => 1,
            Digit::Middle => 2,
            Digit::Ring => 3,
            Digit::Little => 4,
        };
        h + d
    }
}

impl fmt::Display for Finger {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let hand = match self.hand {
            Hand::Left => "L",
            Hand::Right => "R",
        };
        let digit = match self.digit {
            Digit::Thumb => "thumb",
            Digit::Index => "index",
            Digit::Middle => "middle",
            Digit::Ring => "ring",
            Digit::Little => "little",
        };
        write!(f, "{hand}-{digit}")
    }
}

/// A capture session. The study protocol captured two sets per device per
/// participant; we call these sessions 0 and 1.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SessionId(pub u8);

impl fmt::Display for SessionId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "session{}", self.0)
    }
}

/// A capture device, indexed as in the paper's Table 1: `D0..D3` are optical
/// live-scan sensors, `D4` is the flat-bed-scanned ink ten-print card.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct DeviceId(pub u8);

impl DeviceId {
    /// Number of devices in the study (D0–D4).
    pub const COUNT: usize = 5;

    /// All device identifiers in paper order.
    pub const ALL: [DeviceId; 5] = [
        DeviceId(0),
        DeviceId(1),
        DeviceId(2),
        DeviceId(3),
        DeviceId(4),
    ];
}

impl fmt::Display for DeviceId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "D{}", self.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn finger_indices_are_distinct_and_dense() {
        let mut seen = [false; 10];
        for finger in Finger::all() {
            let i = finger.index() as usize;
            assert!(i < 10);
            assert!(!seen[i], "duplicate index {i}");
            seen[i] = true;
        }
        assert!(seen.iter().all(|&s| s));
    }

    #[test]
    fn display_formats_are_stable() {
        assert_eq!(SubjectId(7).to_string(), "S0007");
        assert_eq!(Finger::RIGHT_INDEX.to_string(), "R-index");
        assert_eq!(DeviceId(4).to_string(), "D4");
        assert_eq!(SessionId(1).to_string(), "session1");
    }

    #[test]
    fn device_all_matches_count() {
        assert_eq!(DeviceId::ALL.len(), DeviceId::COUNT);
    }

    #[test]
    fn ids_are_ordered_for_map_keys() {
        assert!(SubjectId(1) < SubjectId(2));
        assert!(DeviceId(0) < DeviceId(4));
    }
}
