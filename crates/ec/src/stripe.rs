//! Stripe geometry: how a logical byte range maps onto (stripe, block,
//! offset) coordinates in an RS(k, m) layout with fixed block size.

/// Static stripe geometry shared by clients, OSDs, and the MDS.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct StripeConfig {
    /// Data blocks per stripe.
    pub k: usize,
    /// Parity blocks per stripe.
    pub m: usize,
    /// Block size in bytes.
    pub block_size: u64,
}

impl StripeConfig {
    /// Creates a geometry description.
    ///
    /// # Panics
    /// Panics if any parameter is zero.
    pub fn new(k: usize, m: usize, block_size: u64) -> Self {
        assert!(k > 0 && m > 0 && block_size > 0, "invalid stripe config");
        StripeConfig { k, m, block_size }
    }

    /// Bytes of user data covered by one stripe.
    #[inline]
    pub fn stripe_data_bytes(&self) -> u64 {
        self.k as u64 * self.block_size
    }

    /// Total blocks per stripe (data + parity).
    #[inline]
    pub fn blocks_per_stripe(&self) -> usize {
        self.k + self.m
    }

    /// Maps a logical file offset to its stripe coordinates.
    #[inline]
    pub fn locate(&self, offset: u64) -> BlockAddr {
        let stripe = offset / self.stripe_data_bytes();
        let within = offset % self.stripe_data_bytes();
        BlockAddr {
            stripe,
            block: (within / self.block_size) as usize,
            offset: within % self.block_size,
        }
    }

    /// Splits a logical `(offset, len)` range into per-block extents, each
    /// entirely inside one data block. This is how a client shards an update
    /// request before dispatch.
    pub fn split_range(&self, offset: u64, len: u64) -> Vec<Extent> {
        let mut out = Vec::new();
        let mut cur = offset;
        let end = offset + len;
        while cur < end {
            let addr = self.locate(cur);
            let room = self.block_size - addr.offset;
            let take = room.min(end - cur);
            out.push(Extent {
                addr,
                len: take,
                logical_offset: cur,
            });
            cur += take;
        }
        out
    }
}

/// Coordinates of a byte inside the stripe layout.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct BlockAddr {
    /// Stripe index within the file.
    pub stripe: u64,
    /// Data-block index within the stripe (`0..k`).
    pub block: usize,
    /// Byte offset within the block.
    pub offset: u64,
}

/// A contiguous extent of a request inside a single data block.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Extent {
    /// Where the extent starts.
    pub addr: BlockAddr,
    /// Extent length in bytes.
    pub len: u64,
    /// Original logical offset (for reassembly on read).
    pub logical_offset: u64,
}

/// Round-robin placement with a per-stripe rotation, mirroring the paper's
/// ECFS which spreads each stripe's `k + m` blocks over distinct OSDs.
#[derive(Clone, Copy, Debug)]
pub struct StripeLayout {
    /// Number of OSD nodes in the cluster.
    pub nodes: usize,
}

impl StripeLayout {
    /// Creates a layout over `nodes` OSDs.
    ///
    /// # Panics
    /// Panics if `nodes == 0`.
    pub fn new(nodes: usize) -> Self {
        assert!(nodes > 0, "cluster needs at least one node");
        StripeLayout { nodes }
    }

    /// The OSD hosting `role` (0..k are data blocks, k..k+m parity) of
    /// `stripe`. Rotation by stripe index balances parity load (otherwise
    /// the same nodes would absorb every parity write).
    #[inline]
    pub fn node_for(&self, stripe: u64, role: usize, blocks_per_stripe: usize) -> usize {
        debug_assert!(role < blocks_per_stripe);
        ((stripe as usize % self.nodes) + role) % self.nodes
    }

    /// Inverse-ish helper: all roles of `stripe` hosted on `node`.
    pub fn roles_on_node(&self, stripe: u64, node: usize, blocks_per_stripe: usize) -> Vec<usize> {
        (0..blocks_per_stripe)
            .filter(|&r| self.node_for(stripe, r, blocks_per_stripe) == node)
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn locate_walks_the_stripe() {
        let cfg = StripeConfig::new(4, 2, 100);
        assert_eq!(
            cfg.locate(0),
            BlockAddr {
                stripe: 0,
                block: 0,
                offset: 0
            }
        );
        assert_eq!(
            cfg.locate(99),
            BlockAddr {
                stripe: 0,
                block: 0,
                offset: 99
            }
        );
        assert_eq!(
            cfg.locate(100),
            BlockAddr {
                stripe: 0,
                block: 1,
                offset: 0
            }
        );
        assert_eq!(
            cfg.locate(399),
            BlockAddr {
                stripe: 0,
                block: 3,
                offset: 99
            }
        );
        assert_eq!(
            cfg.locate(400),
            BlockAddr {
                stripe: 1,
                block: 0,
                offset: 0
            }
        );
    }

    #[test]
    fn split_range_covers_exactly() {
        let cfg = StripeConfig::new(3, 2, 64);
        let extents = cfg.split_range(50, 200);
        // Coverage is contiguous, in order, and sums to the request length.
        let total: u64 = extents.iter().map(|e| e.len).sum();
        assert_eq!(total, 200);
        let mut cursor = 50;
        for e in &extents {
            assert_eq!(e.logical_offset, cursor);
            assert_eq!(cfg.locate(cursor), e.addr);
            assert!(e.addr.offset + e.len <= 64, "extent crosses block edge");
            cursor += e.len;
        }
        assert_eq!(cursor, 250);
    }

    #[test]
    fn split_range_single_block() {
        let cfg = StripeConfig::new(6, 3, 4096);
        let extents = cfg.split_range(4096 + 10, 100);
        assert_eq!(extents.len(), 1);
        assert_eq!(extents[0].addr.block, 1);
        assert_eq!(extents[0].addr.offset, 10);
    }

    #[test]
    fn layout_spreads_blocks_across_distinct_nodes() {
        let layout = StripeLayout::new(16);
        let bps = 10; // RS(6,4)
        for stripe in 0..32u64 {
            let mut seen = std::collections::BTreeSet::new();
            for role in 0..bps {
                let n = layout.node_for(stripe, role, bps);
                assert!(n < 16);
                assert!(seen.insert(n), "stripe {stripe} role {role} collides");
            }
        }
    }

    #[test]
    fn layout_rotates_across_stripes() {
        let layout = StripeLayout::new(8);
        let n0 = layout.node_for(0, 0, 6);
        let n1 = layout.node_for(1, 0, 6);
        assert_ne!(n0, n1, "stripe rotation must move block 0");
    }

    #[test]
    fn roles_on_node_matches_forward_map() {
        let layout = StripeLayout::new(5);
        let bps = 5;
        for stripe in 0..10u64 {
            for node in 0..5 {
                for role in layout.roles_on_node(stripe, node, bps) {
                    assert_eq!(layout.node_for(stripe, role, bps), node);
                }
            }
        }
    }
}
