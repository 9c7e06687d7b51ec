//! Block placement policies: which OSD hosts each role of each stripe.
//!
//! The seed system hard-wired round-robin rotation
//! ([`tsue_ec::StripeLayout`]). With a rack topology in the fabric model,
//! placement becomes a policy decision with availability consequences:
//!
//! * [`Placement::Flat`] — the seed behavior: consecutive roles on
//!   consecutive OSDs, rotated per stripe. Oblivious to racks, so a
//!   stripe's blocks can pile onto one rack and a single rack failure can
//!   exceed the code's tolerance `m` (data loss).
//! * [`Placement::RackAware`] — spreads each stripe's `k + m` blocks
//!   round-robin across racks (at most `ceil((k+m)/racks)` per rack), so
//!   whenever `ceil((k+m)/racks) <= m` any single-rack failure stays
//!   recoverable — the property Rashmi et al. and CNC-style maintenance
//!   assume of production clusters.
//!
//! Policies are pure functions of `(stripe, role)` so every layer —
//! client dispatch, scheme delta routing, recovery survivor selection —
//! derives identical homes without shared mutable state. Post-recovery
//! overrides (blocks rebuilt onto new homes) are layered on top by the
//! MDS rehome table, not by the policy.

use serde::{Deserialize, Serialize, Value};
use tsue_ec::StripeLayout;

/// Placement policy selector — the serializable form used by scenario
/// files (`"placement": "rack-aware"`) and [`crate::ClusterConfig`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum PlacementKind {
    /// Round-robin rotation, rack-oblivious (the seed behavior).
    #[default]
    Flat,
    /// Stripe blocks spread across racks for single-rack-failure safety.
    RackAware,
}

impl PlacementKind {
    /// Lower-case token used by scenario files and CLI flags.
    pub fn token(&self) -> &'static str {
        match self {
            PlacementKind::Flat => "flat",
            PlacementKind::RackAware => "rack-aware",
        }
    }

    /// All selectable tokens (CLI/scenario error messages).
    pub fn names() -> &'static [&'static str] {
        &["flat", "rack-aware"]
    }

    /// Parses the scenario/CLI token (case-insensitive).
    pub fn parse(s: &str) -> Option<Self> {
        match s.to_ascii_lowercase().as_str() {
            "flat" => Some(PlacementKind::Flat),
            "rack-aware" | "rack_aware" | "rackaware" => Some(PlacementKind::RackAware),
            _ => None,
        }
    }

    /// Builds the concrete policy for a cluster of `osds` nodes in
    /// `racks` racks.
    ///
    /// # Panics
    /// Panics if rack-aware placement is requested with `racks == 0` or
    /// `osds` not divisible by `racks` (unequal racks would break the
    /// distinctness guarantee); scenario validation reports this before
    /// construction.
    pub fn build(&self, osds: usize, racks: usize) -> Placement {
        match self {
            PlacementKind::Flat => Placement::Flat(StripeLayout::new(osds)),
            PlacementKind::RackAware => {
                assert!(racks > 0, "rack-aware placement needs at least one rack");
                assert!(
                    osds.is_multiple_of(racks),
                    "rack-aware placement needs equal racks ({osds} OSDs across {racks} racks)"
                );
                Placement::RackAware {
                    racks,
                    per_rack: osds / racks,
                }
            }
        }
    }
}

// Hand-written (rather than derived) so scenario JSON reads
// `"placement": "rack-aware"` with the same tokens the CLI flags use.
impl Serialize for PlacementKind {
    fn to_value(&self) -> Value {
        Value::Str(self.token().to_string())
    }
}

impl Deserialize for PlacementKind {
    fn from_value(v: &Value) -> Result<Self, serde::DeError> {
        match v {
            Value::Str(s) => Self::parse(s)
                .ok_or_else(|| serde::DeError::unknown_variant("PlacementKind", s, Self::names())),
            other => Err(serde::DeError::mismatch("PlacementKind", "string", other)),
        }
    }
}

/// A built block-placement policy: a pure `(stripe, role) → OSD` map.
#[derive(Clone, Copy, Debug)]
pub enum Placement {
    /// The seed policy: [`StripeLayout`]'s per-stripe-rotated round-robin.
    Flat(StripeLayout),
    /// Rack-aware placement over `racks` equal racks of `per_rack` nodes
    /// (rack `r` owns OSDs `r*per_rack .. (r+1)*per_rack`, matching
    /// [`tsue_net::Topology::rack_map`]'s contiguous OSD assignment).
    ///
    /// Role `r` of stripe `s` goes to rack `(s + r) % racks` — consecutive
    /// roles fan out over consecutive racks, and the stripe index rotates
    /// which rack takes the first block so parity load balances. Within
    /// the rack, the slot rotates by `s / racks` so stripes also balance
    /// across the rack's members. Distinctness: two roles land on the same
    /// rack only when they differ by a multiple of `racks`, and then their
    /// in-rack slots differ because `ceil(bps / racks) <= per_rack`
    /// (implied by `bps <= osds`).
    RackAware {
        /// Number of racks.
        racks: usize,
        /// OSDs per rack.
        per_rack: usize,
    },
}

impl Placement {
    /// The OSD hosting `role` (0..k data, k..k+m parity) of `stripe`.
    #[inline]
    pub fn node_for(&self, stripe: u64, role: usize, blocks_per_stripe: usize) -> usize {
        match *self {
            Placement::Flat(layout) => layout.node_for(stripe, role, blocks_per_stripe),
            Placement::RackAware { racks, per_rack } => {
                debug_assert!(role < blocks_per_stripe);
                debug_assert!(blocks_per_stripe <= racks * per_rack);
                let rack = (stripe as usize + role) % racks;
                let slot = (stripe as usize / racks + role / racks) % per_rack;
                rack * per_rack + slot
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    #[test]
    fn tokens_round_trip() {
        for name in PlacementKind::names() {
            let k = PlacementKind::parse(name).unwrap();
            assert_eq!(k.token(), *name);
            let v = serde::Serialize::to_value(&k);
            assert_eq!(
                <PlacementKind as serde::Deserialize>::from_value(&v).unwrap(),
                k
            );
        }
        assert!(PlacementKind::parse("diagonal").is_none());
    }

    fn rack_aware(osds: usize, racks: usize) -> Placement {
        PlacementKind::RackAware.build(osds, racks)
    }

    /// All roles of `stripe` hosted on `node`.
    fn roles_on_node(p: &Placement, stripe: u64, node: usize, bps: usize) -> Vec<usize> {
        (0..bps)
            .filter(|&r| p.node_for(stripe, r, bps) == node)
            .collect()
    }

    #[test]
    fn flat_matches_stripe_layout() {
        let p = PlacementKind::Flat.build(16, 1);
        let l = StripeLayout::new(16);
        for s in 0..40u64 {
            for role in 0..6 {
                assert_eq!(p.node_for(s, role, 6), l.node_for(s, role, 6));
            }
        }
    }

    #[test]
    fn rack_aware_nodes_are_distinct_and_spread() {
        let p = rack_aware(16, 4);
        let bps = 6; // RS(4, 2)
        for s in 0..64u64 {
            let mut nodes = BTreeSet::new();
            let mut per_rack = [0usize; 4];
            for role in 0..bps {
                let n = p.node_for(s, role, bps);
                assert!(n < 16);
                assert!(nodes.insert(n), "stripe {s} role {role} collides");
                per_rack[n / 4] += 1;
            }
            // The most blocks of one stripe a single rack can host — the
            // quantity that must stay `<= m` for single-rack survivability.
            let cap = bps.div_ceil(4);
            assert!(
                per_rack.iter().all(|&c| c <= cap),
                "stripe {s} overloads a rack: {per_rack:?}"
            );
            // RS(4,2) over 4 racks: at most 2 = m per rack ⇒ any single
            // rack failure is survivable.
            assert!(per_rack.iter().all(|&c| c <= 2));
        }
    }

    #[test]
    fn rack_aware_rotates_racks_and_slots() {
        let p = rack_aware(8, 2);
        // Rack of the first role rotates with the stripe index.
        let r0 = p.node_for(0, 0, 4) / 4;
        let r1 = p.node_for(1, 0, 4) / 4;
        assert_ne!(r0, r1);
        // In-rack slot rotates across stripe groups.
        assert_ne!(p.node_for(0, 0, 4), p.node_for(2, 0, 4));
    }

    #[test]
    #[should_panic(expected = "equal racks")]
    fn rack_aware_rejects_unequal_racks() {
        rack_aware(10, 4);
    }

    #[test]
    fn roles_on_node_matches_forward_map() {
        let p = rack_aware(12, 3);
        for s in 0..12u64 {
            for node in 0..12 {
                for role in roles_on_node(&p, s, node, 7) {
                    assert_eq!(p.node_for(s, role, 7), node);
                }
            }
        }
    }
}
