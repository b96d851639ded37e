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
//! [`coalesce_cc13_half_warp`] and [`lines_cc20`] write the two rules out
//! as sorted passes that list every transaction and line. The interpreter
//! charges each access through the order-free forms beside them, which
//! the property tests check against the written-out ones:
//!
//! * [`cc13_half_warp_totals`] needs only each transaction's size, which
//!   follows from the set of 32-byte quarters its segment touches (a
//!   4-bit mask): one quarter is 32 bytes, quarters inside one aligned
//!   half are 64, anything else 128. Lanes whose segments ascend (every
//!   contiguous and row-strided access) touch each segment in one run,
//!   so a running mask is closed into the totals when the next segment
//!   starts; any other order keeps one mask per distinct segment, found
//!   by a scan. Neither copies nor sorts. The scan alone gives the same
//!   totals for every order; the run path is kept because end to end it
//!   ran faster than the scan alone.
//! * [`cc20_warp_lines`] deduplicates lines in lane order and sorts only
//!   when a line is lower than the one before it: the L1 must see a
//!   warp's lines in ascending order, as the written-out rule lists them,
//!   because its LRU state depends on the order of its lookups.
//!
//! Functions here are pure so they can be property-tested in isolation.
//! Every address the interpreter passes is 4-byte aligned.

use crate::mask::WARP;

/// One coalesced transaction: base address and size in bytes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Transaction {
    pub base: u64,
    pub bytes: u32,
}

/// Coalesce one *half-warp*'s 4-byte accesses under the CC 1.2/1.3 rules.
///
/// `addrs` are the byte addresses issued by the active lanes of the
/// half-warp (duplicates allowed). Returns the memory transactions issued,
/// in address order.
pub fn coalesce_cc13_half_warp(addrs: &[u64]) -> Vec<Transaction> {
    let mut out = Vec::new();
    // Sorted addresses: each 128-byte segment is one run, in address
    // order, with its lowest and highest access at the ends of the run.
    let mut segs = addrs.to_vec();
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
    out
}

/// Transaction size of a CC 1.3 segment whose touched 32-byte quarters
/// are the set bits of `quarters` (bit `q` for bytes `32q..32q + 32`).
#[inline]
fn segment_bytes(quarters: u8) -> u32 {
    if quarters.count_ones() == 1 {
        32
    } else if quarters & 0b0011 == 0 || quarters & 0b1100 == 0 {
        64
    } else {
        128
    }
}

/// The number of transactions and their total bytes that one half-warp's
/// 4-byte-aligned accesses issue under the CC 1.2/1.3 rules: the totals
/// of [`coalesce_cc13_half_warp`], counted without sorting (see the
/// module docs). Panics on more than a half-warp of addresses.
#[inline]
pub fn cc13_half_warp_totals(addrs: &[u64]) -> (u32, u32) {
    assert!(addrs.len() <= WARP / 2, "a half-warp has at most {} lanes", WARP / 2);
    // Ascending segments are one run each, closed when the next starts.
    let (mut count, mut bytes) = (0, 0);
    let (mut seg, mut quarters) = (0, 0u8);
    for &a in addrs {
        let (s, q) = (a >> 7, 1 << ((a >> 5) & 3));
        if quarters != 0 && s == seg {
            quarters |= q;
        } else if quarters == 0 || s > seg {
            if quarters != 0 {
                count += 1;
                bytes += segment_bytes(quarters);
            }
            (seg, quarters) = (s, q);
        } else {
            return cc13_totals_any_order(addrs);
        }
    }
    if quarters != 0 {
        count += 1;
        bytes += segment_bytes(quarters);
    }
    (count, bytes)
}

/// [`cc13_half_warp_totals`] of addresses whose segments come in any
/// order: one quarter mask per distinct segment, found by a scan.
fn cc13_totals_any_order(addrs: &[u64]) -> (u32, u32) {
    let mut segs = [(0u64, 0u8); WARP / 2];
    let mut n = 0;
    for &a in addrs {
        let (seg, quarter) = (a >> 7, 1 << ((a >> 5) & 3));
        match segs[..n].iter_mut().find(|s| s.0 == seg) {
            Some(s) => s.1 |= quarter,
            None => {
                segs[n] = (seg, quarter);
                n += 1;
            }
        }
    }
    (n as u32, segs[..n].iter().map(|&(_, q)| segment_bytes(q)).sum())
}

/// Distinct 128-byte lines touched by a warp (CC 2.0 L1 granularity), in
/// ascending order.
pub fn lines_cc20(addrs: &[u64]) -> Vec<u64> {
    let mut lines: Vec<u64> = addrs.iter().map(|a| a & !127).collect();
    lines.sort_unstable();
    lines.dedup();
    lines
}

/// [`lines_cc20`] of at most a warp of addresses, written into `out`:
/// deduplicated in lane order and sorted only when some line is lower
/// than the one before it (see the module docs). Panics on more than a
/// warp of addresses.
#[inline]
pub fn cc20_warp_lines<'o>(addrs: &[u64], out: &'o mut [u64; WARP]) -> &'o [u64] {
    assert!(addrs.len() <= WARP, "a warp has at most {WARP} lanes");
    let (mut n, mut ascending) = (0, true);
    for &a in addrs {
        let line = a & !127;
        if n > 0 && line == out[n - 1] {
            continue;
        }
        ascending &= n == 0 || line > out[n - 1];
        out[n] = line;
        n += 1;
    }
    if !ascending {
        out[..n].sort_unstable();
        let mut kept = 1;
        for i in 1..n {
            if out[i] != out[kept - 1] {
                out[kept] = out[i];
                kept += 1;
            }
        }
        n = kept;
    }
    &out[..n]
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
