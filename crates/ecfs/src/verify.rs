//! End-state verification: the cross-scheme correctness spine.
//!
//! Every update scheme must leave the cluster in the *same* state once its
//! logs are drained: data blocks hold exactly the bytes the arrival-ordered
//! update stream dictates, and parity blocks equal a full re-encode of the
//! data. Schemes may differ in cost, never in state. These helpers only
//! work in materialized mode ([`crate::ClusterConfig::materialize`]).

use crate::osd::BlockId;
use crate::{payload_into, Cluster};
use std::collections::BTreeMap;

/// Rebuilds the expected content of every data block by replaying the
/// recorded update-extent arrivals in OSD-serialized order.
///
/// # Panics
/// Panics if the cluster was not configured with `record_arrivals`.
pub fn reference_data(world: &Cluster) -> BTreeMap<BlockId, Vec<u8>> {
    let arrivals = world
        .core
        .metrics
        .arrivals
        .as_ref()
        // INVARIANT: verification-harness precondition — the message
        // names the config flag the caller must set.
        .expect("reference_data needs cfg.record_arrivals");
    let bs = world.core.cfg.stripe.block_size as usize;
    let mut blocks: BTreeMap<BlockId, Vec<u8>> = BTreeMap::new();
    for a in arrivals {
        let buf = blocks.entry(a.block).or_insert_with(|| vec![0u8; bs]);
        payload_into(
            a.op_id,
            a.ext,
            &mut buf[a.off as usize..(a.off + a.len) as usize],
        );
    }
    blocks
}

/// Checks that every data block on disk matches the reference replay.
/// Returns the number of blocks compared.
///
/// # Errors
/// Returns a description of the first mismatch in `BlockId` order.
pub fn check_data_blocks(world: &Cluster) -> Result<usize, String> {
    let reference = reference_data(world);
    let mut checked = 0;
    let mut got = vec![0u8; world.core.cfg.stripe.block_size as usize];
    for (block, expect) in &reference {
        let gstripe = world.core.global_stripe(block.file, block.stripe);
        let owner = world.core.owner_of(gstripe, block.role);
        if !world.core.osds[owner].peek_into(*block, 0, &mut got) {
            return Err(format!("{block:?} not materialized on OSD {owner}"));
        }
        if got != *expect {
            let first_diff = got
                .iter()
                .zip(expect.iter())
                .position(|(a, b)| a != b)
                .unwrap_or(0);
            return Err(format!(
                "{block:?} content mismatch at byte {first_diff} (osd {owner})"
            ));
        }
        checked += 1;
    }
    Ok(checked)
}

/// Checks that every stripe's parity equals a fresh encode of its data
/// blocks. Returns the number of stripes verified.
///
/// # Errors
/// Returns a description of the first inconsistent stripe.
pub fn check_parity(world: &Cluster) -> Result<usize, String> {
    let k = world.core.cfg.stripe.k;
    let m = world.core.cfg.stripe.m;
    let bs = world.core.cfg.stripe.block_size as usize;
    let mut verified = 0;
    // cast: file ids are u32 everywhere (BlockId::file); file_count is
    // bounded by the configured file set, far below u32::MAX.
    for file in 0..world.core.mds.file_count() as u32 {
        let stripes = world.core.mds.file(file).stripes;
        for stripe in 0..stripes {
            let gstripe = world.core.global_stripe(file, stripe);
            let mut shards: Vec<Vec<u8>> = Vec::with_capacity(k + m);
            for role in 0..k + m {
                let owner = world.core.owner_of(gstripe, role);
                let block = BlockId { file, stripe, role };
                let mut data = vec![0u8; bs];
                if !world.core.osds[owner].peek_into(block, 0, &mut data) {
                    return Err(format!("{block:?} missing on OSD {owner}"));
                }
                shards.push(data);
            }
            let ok = world
                .core
                .rs
                .verify(&shards)
                .map_err(|e| format!("verify failed: {e}"))?;
            if !ok {
                return Err(format!(
                    "file {file} stripe {stripe}: parity inconsistent with data"
                ));
            }
            verified += 1;
        }
    }
    Ok(verified)
}

/// Full end-state check: data blocks match the replay reference *and*
/// parity matches the data. Returns `(blocks, stripes)` verified.
///
/// # Errors
/// Propagates the first failure from either check.
pub fn check_consistency(world: &Cluster) -> Result<(usize, usize), String> {
    let blocks = check_data_blocks(world)?;
    let stripes = check_parity(world)?;
    Ok((blocks, stripes))
}
