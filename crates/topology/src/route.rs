//! Deterministic minimal routing: e-cube (hypercube) and XY (mesh). Each
//! hop is handed to `hop(from, to)` as a pair of adjacent node ids.

/// E-cube routing: correct differing address bits from the lowest dimension
/// up. Deterministic, minimal, and deadlock-free under wormhole switching.
pub(crate) fn ecube(src: usize, dst: usize, mut hop: impl FnMut(usize, usize)) {
    let mut at = src;
    while at != dst {
        let diff = at ^ dst;
        let next = at ^ (diff & diff.wrapping_neg()); // lowest set bit
        hop(at, next);
        at = next;
    }
}

/// XY routing: travel along the row (X/columns) first, then along the
/// column (Y/rows). Deterministic, minimal, deadlock-free.
pub(crate) fn xy(cols: usize, src: usize, dst: usize, mut hop: impl FnMut(usize, usize)) {
    let (mut r, mut c) = (src / cols, src % cols);
    let (tr, tc) = (dst / cols, dst % cols);
    while c != tc {
        let nc = if c < tc { c + 1 } else { c - 1 };
        hop(r * cols + c, r * cols + nc);
        c = nc;
    }
    while r != tr {
        let nr = if r < tr { r + 1 } else { r - 1 };
        hop(r * cols + c, nr * cols + c);
        r = nr;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ecube_hops(src: usize, dst: usize) -> Vec<(usize, usize)> {
        let mut hops = Vec::new();
        ecube(src, dst, |a, b| hops.push((a, b)));
        hops
    }

    fn xy_hops(cols: usize, src: usize, dst: usize) -> Vec<(usize, usize)> {
        let mut hops = Vec::new();
        xy(cols, src, dst, |a, b| hops.push((a, b)));
        hops
    }

    #[test]
    fn ecube_corrects_low_dimensions_first() {
        // bit 0 first, then bit 2
        assert_eq!(ecube_hops(0, 0b101), [(0, 1), (1, 0b101)]);
        assert_eq!(ecube_hops(0b110, 0b001), [(6, 7), (7, 5), (5, 1)]);
    }

    #[test]
    fn xy_goes_along_row_then_column() {
        // 4x4: node 0 = (0,0) to node 15 = (3,3): east along row 0, then
        // south down column 3.
        assert_eq!(
            xy_hops(4, 0, 15),
            [(0, 1), (1, 2), (2, 3), (3, 7), (7, 11), (11, 15)]
        );
    }

    #[test]
    fn xy_handles_westward_and_northward() {
        // 2x4: node 7 = (1,3) to node 0 = (0,0): 3 west, 1 north.
        assert_eq!(xy_hops(4, 7, 0), [(7, 6), (6, 5), (5, 4), (4, 0)]);
    }

    #[test]
    fn zero_length_routes() {
        assert!(ecube_hops(2, 2).is_empty());
        assert!(xy_hops(2, 1, 1).is_empty());
    }
}
