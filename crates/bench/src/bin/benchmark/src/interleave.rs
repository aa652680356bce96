//! Interleaving a contiguous flowmark log into a live-looking stream.
//!
//! `flowmark::write_log` writes each case's lines together. A live audit
//! trail interleaves cases, which is what `mine --follow` and its case
//! assembler exist for. [`interleave`] keeps at most `width` cases open
//! at once and, at every step, emits the next line of one open case
//! chosen at random, so each case keeps its own line order.

use rand::Rng;

/// Reorders `encoded` (flowmark lines, each case's lines contiguous) so
/// that up to `width` cases are open at any point. The output holds the
/// same lines; only their order changes.
pub fn interleave<R: Rng>(encoded: &[u8], width: usize, rng: &mut R) -> Vec<u8> {
    assert!(width >= 1, "interleave width must be at least 1");
    let cases = split_cases(encoded);
    let mut out = Vec::with_capacity(encoded.len());
    // (case index, lines of that case already emitted)
    let mut open: Vec<(usize, usize)> = Vec::with_capacity(width);
    let mut next_case = 0;
    while next_case < cases.len() && open.len() < width {
        open.push((next_case, 0));
        next_case += 1;
    }
    while !open.is_empty() {
        let slot = rng.gen_range(0..open.len());
        let (case, emitted) = open[slot];
        out.extend_from_slice(cases[case][emitted]);
        if emitted + 1 < cases[case].len() {
            open[slot].1 += 1;
        } else if next_case < cases.len() {
            open[slot] = (next_case, 0);
            next_case += 1;
        } else {
            open.swap_remove(slot);
        }
    }
    out
}

/// Splits flowmark bytes into cases: runs of consecutive lines (newline
/// included) sharing the case id before the first comma.
fn split_cases(encoded: &[u8]) -> Vec<Vec<&[u8]>> {
    let mut cases: Vec<Vec<&[u8]>> = Vec::new();
    let mut current_id: &[u8] = &[];
    for line in encoded.split_inclusive(|&b| b == b'\n') {
        let id = line.split(|&b| b == b',').next().unwrap_or(line);
        match cases.last_mut() {
            Some(case) if id == current_id => case.push(line),
            _ => {
                cases.push(vec![line]);
                current_id = id;
            }
        }
    }
    cases
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use std::collections::HashMap;

    fn case_of(line: &str) -> &str {
        line.split(',').next().unwrap_or(line)
    }

    fn contiguous_log(cases: usize, max_lines: usize) -> String {
        let mut out = String::new();
        for c in 0..cases {
            for l in 0..1 + c % max_lines {
                out.push_str(&format!("case-{c},act{l},START,{l}\n"));
            }
        }
        out
    }

    #[test]
    fn keeps_case_order_and_width() {
        let input = contiguous_log(200, 7);
        for width in [1, 2, 8, 64, 500] {
            let out = interleave(input.as_bytes(), width, &mut StdRng::seed_from_u64(3));
            let out = String::from_utf8(out).unwrap();

            let mut per_case_in: HashMap<&str, Vec<&str>> = HashMap::new();
            for line in input.lines() {
                per_case_in.entry(case_of(line)).or_default().push(line);
            }
            let mut per_case_out: HashMap<&str, Vec<&str>> = HashMap::new();
            for line in out.lines() {
                per_case_out.entry(case_of(line)).or_default().push(line);
            }
            assert_eq!(per_case_in, per_case_out, "width {width}: per-case order");

            // A case is open from its first line to its last.
            let last: HashMap<&str, usize> = out
                .lines()
                .enumerate()
                .map(|(i, l)| (case_of(l), i))
                .collect();
            let mut open = std::collections::HashSet::new();
            let mut widest = 0;
            for (i, line) in out.lines().enumerate() {
                open.insert(case_of(line));
                widest = widest.max(open.len());
                if last[case_of(line)] == i {
                    open.remove(case_of(line));
                }
            }
            assert!(
                widest <= width,
                "width {width}: {widest} cases open at once"
            );
            if width > 1 {
                assert!(widest > 1, "width {width}: cases never interleaved");
            }
        }
    }

    #[test]
    fn width_one_is_the_identity() {
        let input = contiguous_log(50, 5);
        let out = interleave(input.as_bytes(), 1, &mut StdRng::seed_from_u64(9));
        assert_eq!(out, input.as_bytes());
    }
}
