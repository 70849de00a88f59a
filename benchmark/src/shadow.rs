//! Shadow map for the service workload's correctness gate.
//!
//! The front-end serves each key's requests in submission order, even when
//! it coalesces them into one slot, so the value a `Get` must observe is
//! known when it is submitted: whatever the key's latest accepted `Put`
//! wrote. The shadow records that expectation per ticket and checks every
//! completion against it. Values are derived from `(key, version)` so the
//! shadow stores one version number per key.

/// Bytes of every value the workload writes.
pub const VALUE_BYTES: usize = 16;

/// The value version `version` of key `rank` holds.
pub fn value_of(rank: u32, version: u32) -> [u8; VALUE_BYTES] {
    let mut v = [0u8; VALUE_BYTES];
    v[..4].copy_from_slice(&rank.to_le_bytes());
    v[4..8].copy_from_slice(&version.to_le_bytes());
    let mix = (u64::from(rank) << 32 | u64::from(version)).wrapping_mul(0x9e37_79b9_7f4a_7c15);
    v[8..].copy_from_slice(&mix.to_le_bytes());
    v
}

/// What a ticket must observe when it completes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Expect {
    /// A `Get` of `rank` submitted when the key stood at `version`.
    Get { rank: u32, version: u32 },
    /// A `Put`: completes with no value.
    Put,
}

/// Expected observations of every accepted request, by ticket.
#[derive(Debug)]
pub struct ShadowMap {
    /// Current version per key rank (0 = the pre-loaded value).
    versions: Vec<u32>,
    /// Indexed by the front-end's ticket, which counts accepted requests.
    expected: Vec<Expect>,
    completed: u64,
}

impl ShadowMap {
    /// A shadow over `keys` pre-loaded keys, each at version 0.
    pub fn new(keys: usize) -> Self {
        ShadowMap { versions: vec![0; keys], expected: Vec::new(), completed: 0 }
    }

    /// The value the next accepted `Put` of `rank` will write.
    pub fn next_put_value(&self, rank: u32) -> [u8; VALUE_BYTES] {
        value_of(rank, self.versions[rank as usize] + 1)
    }

    /// Applies an accepted request in submission order. `ticket` must be the
    /// next unused one; a rejected request is simply never applied.
    pub fn accept(&mut self, ticket: u64, rank: u32, is_put: bool) {
        assert_eq!(ticket, self.expected.len() as u64, "tickets count accepted requests");
        if is_put {
            self.versions[rank as usize] += 1;
            self.expected.push(Expect::Put);
        } else {
            self.expected.push(Expect::Get { rank, version: self.versions[rank as usize] });
        }
    }

    /// Whether a completion carries what its ticket had to observe.
    pub fn check(&mut self, ticket: u64, value: Option<&[u8]>) -> bool {
        self.completed += 1;
        match self.expected.get(ticket as usize) {
            Some(Expect::Put) => value.is_none(),
            Some(&Expect::Get { rank, version }) => value == Some(&value_of(rank, version)[..]),
            None => false,
        }
    }

    /// Accepted requests that have not completed.
    pub fn outstanding(&self) -> u64 {
        self.expected.len() as u64 - self.completed
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Key 3 sees get, put, get, put, get; returns the tickets of the gets.
    fn scripted() -> (ShadowMap, [u64; 3]) {
        let mut s = ShadowMap::new(8);
        s.accept(0, 3, false);
        s.accept(1, 3, true);
        s.accept(2, 3, false);
        s.accept(3, 3, true);
        s.accept(4, 3, false);
        (s, [0, 2, 4])
    }

    #[test]
    fn faithful_completions_pass() {
        let (mut s, gets) = scripted();
        for (version, ticket) in gets.into_iter().enumerate() {
            assert!(s.check(ticket, Some(&value_of(3, version as u32))));
        }
        assert!(s.check(1, None) && s.check(3, None));
        assert_eq!(s.outstanding(), 0);
    }

    #[test]
    fn a_wrong_value_is_flagged() {
        let (mut s, gets) = scripted();
        let mut wrong = value_of(3, 0);
        wrong[9] ^= 1;
        assert!(!s.check(gets[0], Some(&wrong)));
        assert!(!s.check(gets[1], None), "a hit reported as a miss");
        assert!(!s.check(1, Some(&value_of(3, 1))), "a put that returns a value");
        assert!(!s.check(99, None), "an unknown ticket");
    }

    #[test]
    fn a_reordering_is_flagged() {
        // The second get is served before the put submitted ahead of it (it
        // sees version 0), and the first get after it (it sees version 1).
        let (mut s, gets) = scripted();
        assert!(!s.check(gets[1], Some(&value_of(3, 0))));
        assert!(!s.check(gets[0], Some(&value_of(3, 1))));
    }

    #[test]
    fn rejected_requests_leave_the_shadow_untouched() {
        let mut s = ShadowMap::new(4);
        let before = s.next_put_value(2);
        // A rejected put is never passed to `accept`.
        assert_eq!(s.next_put_value(2), before);
        s.accept(0, 2, false);
        assert!(s.check(0, Some(&value_of(2, 0))));
    }
}
