//! Global-memory coalescing models.
//!
//! The paper's strategies live or die by coalescing, so the simulator
//! reproduces the two protocols of the devices it models:
//!
//! * **CC 1.2/1.3 (Tesla C1060)** — per *half-warp* (16 threads): the
//!   hardware finds the 128-byte segments touched, then shrinks each
//!   transaction to 64 or 32 bytes when all touched words of the segment
//!   fall in one aligned half/quarter (CUDA C Programming Guide, G.3.2.2).
//! * **CC 2.0 (Tesla M2050)** — per warp: one 128-byte L1 cache line per
//!   distinct line touched; misses become 128-byte DRAM transactions.
//!
//! Functions here are pure so they can be property-tested in isolation.

/// One coalesced transaction: base address and size in bytes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Transaction {
    pub base: u64,
    pub bytes: u32,
}

/// Coalesce one *half-warp*'s 4-byte accesses under the CC 1.2/1.3 rules.
///
/// `addrs` are the byte addresses issued by the active lanes of the
/// half-warp (duplicates allowed). Returns the memory transactions issued.
pub fn coalesce_cc13_half_warp(addrs: &[u64]) -> Vec<Transaction> {
    let mut segs = Vec::new();
    let mut out = Vec::new();
    coalesce_cc13_half_warp_into(addrs, &mut segs, &mut out);
    out
}

/// [`coalesce_cc13_half_warp`] writing into caller-provided buffers
/// (`segs` is scratch, `out` receives the transactions) so the per-access
/// hot path allocates nothing.
pub fn coalesce_cc13_half_warp_into(
    addrs: &[u64],
    segs: &mut Vec<u64>,
    out: &mut Vec<Transaction>,
) {
    out.clear();
    // Sorted addresses: each 128-byte segment is one run, in address
    // order (for determinism), with its lowest and highest access at the
    // ends of the run.
    segs.clear();
    segs.extend_from_slice(addrs);
    segs.sort_unstable();
    let mut rest = &segs[..];
    while let Some(&first) = rest.first() {
        let seg = first & !127;
        let run = rest.iter().take_while(|&&a| a & !127 == seg).count();
        let (lo, hi) = (first - seg, rest[run - 1] - seg + 3);
        rest = &rest[run..];
        // Shrink to an aligned 32/64-byte window when possible.
        out.push(if lo / 32 == hi / 32 {
            Transaction { base: seg + (lo / 32) * 32, bytes: 32 }
        } else if lo / 64 == hi / 64 {
            Transaction { base: seg + (lo / 64) * 64, bytes: 64 }
        } else {
            Transaction { base: seg, bytes: 128 }
        });
    }
}

/// Distinct 128-byte lines touched by a warp (CC 2.0 L1 granularity).
pub fn lines_cc20(addrs: &[u64]) -> Vec<u64> {
    let mut lines = Vec::new();
    lines_cc20_into(addrs, &mut lines);
    lines
}

/// [`lines_cc20`] writing into a caller-provided buffer.
pub fn lines_cc20_into(addrs: &[u64], out: &mut Vec<u64>) {
    out.clear();
    out.extend(addrs.iter().map(|a| a & !127));
    out.sort_unstable();
    out.dedup();
}

#[cfg(test)]
mod tests {
    use super::*;

    fn seq_addrs(base: u64, n: usize) -> Vec<u64> {
        (0..n as u64).map(|i| base + 4 * i).collect()
    }

    #[test]
    fn perfectly_coalesced_half_warp_is_one_64b_transaction() {
        // 16 lanes x 4B = 64 contiguous bytes, 64-aligned.
        let t = coalesce_cc13_half_warp(&seq_addrs(0, 16));
        assert_eq!(t, vec![Transaction { base: 0, bytes: 64 }]);
    }

    #[test]
    fn small_footprint_shrinks_to_32b() {
        // 8 lanes x 4B within one 32B quarter.
        let t = coalesce_cc13_half_warp(&seq_addrs(128, 8));
        assert_eq!(t, vec![Transaction { base: 128, bytes: 32 }]);
    }

    #[test]
    fn unaligned_contiguous_spans_full_segment_or_splits() {
        // 16 lanes starting at byte 32: bytes 32..96 fit in segment 0's
        // 64-byte window only if aligned; 32..95 spans quarters 1..2 ->
        // not one 32B, not one aligned 64B (32/64=0, 95/64=1) -> 128B.
        let t = coalesce_cc13_half_warp(&seq_addrs(32, 16));
        assert_eq!(t, vec![Transaction { base: 0, bytes: 128 }]);
    }

    #[test]
    fn strided_access_explodes_into_many_transactions() {
        // Stride 128B: every lane its own segment -> 16 transactions.
        let addrs: Vec<u64> = (0..16u64).map(|i| i * 128).collect();
        let t = coalesce_cc13_half_warp(&addrs);
        assert_eq!(t.len(), 16);
        assert!(t.iter().all(|x| x.bytes == 32));
    }

    #[test]
    fn duplicate_addresses_coalesce() {
        let addrs = vec![64u64; 16];
        let t = coalesce_cc13_half_warp(&addrs);
        assert_eq!(t, vec![Transaction { base: 64, bytes: 32 }]);
    }

    #[test]
    fn empty_half_warp_issues_nothing() {
        assert!(coalesce_cc13_half_warp(&[]).is_empty());
    }

    #[test]
    fn fermi_lines_dedupe() {
        // A full warp of contiguous 4B accesses = 1 line.
        assert_eq!(lines_cc20(&seq_addrs(0, 32)), vec![0]);
        // Crossing a line boundary = 2 lines.
        assert_eq!(lines_cc20(&seq_addrs(64, 32)), vec![0, 128]);
        // Stride-128 = one line per lane.
        let addrs: Vec<u64> = (0..32u64).map(|i| i * 128).collect();
        assert_eq!(lines_cc20(&addrs).len(), 32);
    }

    #[test]
    fn transactions_cover_all_accessed_bytes() {
        // Random-ish pattern: every accessed word must fall inside some
        // returned transaction window.
        let addrs = vec![4u64, 100, 260, 264, 900, 904, 908, 1020];
        let ts = coalesce_cc13_half_warp(&addrs);
        for &a in &addrs {
            assert!(
                ts.iter().any(|t| a >= t.base && a + 4 <= t.base + t.bytes as u64),
                "address {a} not covered by {ts:?}"
            );
        }
    }
}
