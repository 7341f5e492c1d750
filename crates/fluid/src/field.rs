//! The per-step grid field: node binning, load deposition, utilization.
//!
//! The fluid model never touches node pairs. Nodes are binned into square
//! cells of half the reception range; everything downstream — contention,
//! connectivity, routing — happens at cell granularity, so the field's
//! cost grows with occupied cells, not with node pairs or frames. On the
//! `fluid_scale` benchmark's 20,000-node ring (≈ 14k occupied cells, a
//! 2-vCPU Xeon VM) binning takes ≈ 3 ms and the contention integral
//! ≈ 4 ms of a ≈ 12 ms step; DESIGN.md §17 has the breakdown.
//!
//! Two relations between cells, both fixed by geometry at construction:
//!
//! * **link adjacency** — occupied cells whose centers lie within
//!   `rx_range`. With cell size `rx_range / 2` that is the 12-offset
//!   neighborhood `dx² + dy² ≤ 4`.
//! * **contention** — cells whose centers lie within the carrier-sense
//!   range; the utilization of a cell integrates offered load over this
//!   neighborhood.
//!
//! Both neighborhoods are disks, stored as one `(dx, dy_lo, dy_hi)` span
//! per column offset: for a fixed `dx` the admitted `dy` form one run.
//! Occupied cells are kept sorted by `(ix, iy)`, so the cells of a span
//! are one contiguous run of cell ids, found by a binary search for the
//! column and another for the row.
//!
//! Determinism: cells are indexed in sorted coordinate order, BFS expands
//! neighbors in a fixed offset order, and the utilization sum runs in a
//! fixed sequence per cell (offsets by ascending `dx`, then `dy`).

use std::ops::Range;

use cavenet_mobility::Point2;

/// The link disk `dx² + dy² ≤ 4` (centers within `2·cell = rx_range`) as
/// `(dx, dy_lo, dy_hi)` spans in ascending `dx`. The `(0, 0)` offset is
/// the cell itself and is skipped by [`Field::neighbors`]. Fixed order
/// keeps BFS expansion deterministic.
const LINK_SPANS: [(i32, i32, i32); 5] =
    [(-2, 0, 0), (-1, -1, 1), (0, -2, 2), (1, -1, 1), (2, 0, 0)];

/// The disk `dx² + dy² ≤ reach2` as one `(dx, dy_lo, dy_hi)` span per
/// admitted `dx`, in ascending `dx`. For a fixed `dx` the admitted `dy`
/// are contiguous and symmetric, so a span is exactly the run of offsets
/// the row-major enumeration of the disk visits for that column.
fn disk_spans(reach2: f64) -> Vec<(i32, i32, i32)> {
    let r = reach2.sqrt().ceil() as i32;
    (-r..=r)
        .filter_map(|dx| {
            let mut dys = (-r..=r).filter(|dy| f64::from(dx * dx + dy * dy) <= reach2);
            let lo = dys.next()?;
            Some((dx, lo, dys.next_back().unwrap_or(lo)))
        })
        .collect()
}

/// One step's occupied-cell field.
#[derive(Debug, Clone)]
pub struct Field {
    cell: f64,
    /// Occupied cells in ascending `(ix, iy)` order; a cell id indexes it.
    coords: Vec<(i32, i32)>,
    /// One `(ix, start, end)` per occupied column, ascending `ix`:
    /// `coords[start..end]` are that column's cells.
    cols: Vec<(i32, u32, u32)>,
    /// Nodes binned into each cell.
    pub count: Vec<u32>,
    /// Offered airtime load per cell (seconds of airtime per second).
    pub load: Vec<f64>,
    /// Channel utilization per cell (load integrated over the
    /// carrier-sense neighborhood). Filled by [`Field::integrate`].
    pub util: Vec<f64>,
    /// Cell index of each node.
    pub node_cell: Vec<u32>,
    /// The contention disk as [`disk_spans`] of `reach2`.
    contention_spans: Vec<(i32, i32, i32)>,
    /// Squared contention reach in cell units.
    reach2: f64,
}

impl Field {
    /// Bin `positions` (one per node, id order) into cells of size `cell`
    /// metres; `cs_range` bounds the contention neighborhood.
    pub fn bin(positions: &[Point2], cell: f64, cs_range: f64) -> Field {
        let key = |p: &Point2| ((p.x / cell).floor() as i32, (p.y / cell).floor() as i32);
        // Sorting `(cell, node)` numbers cells in coordinate order, so cell
        // ids are a pure function of the occupied set.
        let mut keyed: Vec<((i32, i32), u32)> = positions
            .iter()
            .enumerate()
            .map(|(node, p)| (key(p), node as u32))
            .collect();
        keyed.sort_unstable();
        let mut coords: Vec<(i32, i32)> = Vec::new();
        let mut count: Vec<u32> = Vec::new();
        let mut node_cell = vec![0u32; positions.len()];
        for &(k, node) in &keyed {
            if coords.last() != Some(&k) {
                coords.push(k);
                count.push(0);
            }
            *count.last_mut().expect("a cell was just pushed") += 1;
            node_cell[node as usize] = (coords.len() - 1) as u32;
        }
        let mut cols: Vec<(i32, u32, u32)> = Vec::new();
        for (c, &(ix, _)) in coords.iter().enumerate() {
            match cols.last_mut() {
                Some(col) if col.0 == ix => col.2 += 1,
                _ => cols.push((ix, c as u32, c as u32 + 1)),
            }
        }
        let reach = (cs_range / cell).max(0.0);
        let reach2 = reach * reach;
        let load = vec![0.0; coords.len()];
        let util = vec![0.0; coords.len()];
        Field {
            cell,
            coords,
            cols,
            count,
            load,
            util,
            node_cell,
            contention_spans: disk_spans(reach2),
            reach2,
        }
    }

    /// Number of occupied cells.
    pub fn len(&self) -> usize {
        self.coords.len()
    }

    /// Whether the field has no occupied cells.
    pub fn is_empty(&self) -> bool {
        self.coords.is_empty()
    }

    /// Geometric center of cell `c`.
    pub fn center(&self, c: u32) -> Point2 {
        let (ix, iy) = self.coords[c as usize];
        Point2::new(
            (f64::from(ix) + 0.5) * self.cell,
            (f64::from(iy) + 0.5) * self.cell,
        )
    }

    /// Center-to-center distance between two cells.
    pub fn center_distance(&self, a: u32, b: u32) -> f64 {
        self.center(a).distance(&self.center(b))
    }

    /// Ids of the occupied cells of column entry `col` with row in
    /// `y_lo..=y_hi` — one contiguous run, since cells sort by row within
    /// a column.
    fn rows(&self, col: (i32, u32, u32), y_lo: i32, y_hi: i32) -> Range<u32> {
        let (_, start, end) = col;
        let run = &self.coords[start as usize..end as usize];
        let lo = run.partition_point(|&(_, iy)| iy < y_lo);
        let hi = lo + run[lo..].partition_point(|&(_, iy)| iy <= y_hi);
        start + lo as u32..start + hi as u32
    }

    /// Occupied link-adjacent neighbors of `c`, in fixed offset order.
    pub fn neighbors(&self, c: u32) -> impl Iterator<Item = u32> + '_ {
        let (ix, iy) = self.coords[c as usize];
        LINK_SPANS
            .iter()
            .flat_map(move |&(dx, dy_lo, dy_hi)| {
                match self.cols.binary_search_by_key(&(ix + dx), |col| col.0) {
                    Ok(k) => self.rows(self.cols[k], iy + dy_lo, iy + dy_hi),
                    Err(_) => 0..0,
                }
            })
            .filter(move |&nb| nb != c)
    }

    /// Fill [`Field::util`] from [`Field::load`]: for each cell, the sum
    /// of `load` over its contention neighborhood.
    pub fn integrate(&mut self) {
        let mut util = Vec::with_capacity(self.len());
        if let Some(&(x0, _)) = self.coords.first() {
            // One column cursor per span. Cells run in ascending `ix`, so
            // the first column at or past `ix + dx` only ever moves forward.
            let mut cursors: Vec<usize> = self
                .contention_spans
                .iter()
                .map(|&(dx, _, _)| self.cols.partition_point(|col| col.0 < x0 + dx))
                .collect();
            for &(ix, iy) in &self.coords {
                let mut u = 0.0;
                for (&(dx, dy_lo, dy_hi), k) in self.contention_spans.iter().zip(&mut cursors) {
                    while self.cols.get(*k).is_some_and(|col| col.0 < ix + dx) {
                        *k += 1;
                    }
                    match self.cols.get(*k) {
                        Some(&col) if col.0 == ix + dx => {
                            for n in self.rows(col, iy + dy_lo, iy + dy_hi) {
                                u += self.load[n as usize];
                            }
                        }
                        _ => {}
                    }
                }
                util.push(u);
            }
        }
        self.util = util;
    }

    /// Sum of `deposits` (`(cell, offered-airtime)` pairs) whose cell lies
    /// within the contention disk of `at` — the same disk
    /// [`integrate`](Self::integrate) sums, so
    /// `util[at] - util_from(deposits, at)` is the utilization of `at`
    /// with those deposits excluded. Used to subtract a flow's own load
    /// from its delivery closure: a flow's frames are serialized by its
    /// own MAC queue and never collide with themselves.
    pub fn util_from(&self, deposits: &[(u32, f64)], at: u32) -> f64 {
        let (ax, ay) = self.coords[at as usize];
        deposits
            .iter()
            .map(|&(c, amount)| {
                let (cx, cy) = self.coords[c as usize];
                let (dx, dy) = (cx - ax, cy - ay);
                if f64::from(dx * dx + dy * dy) <= self.reach2 {
                    amount
                } else {
                    0.0
                }
            })
            .sum()
    }

    /// Deterministic BFS from `src` over occupied link-adjacent cells.
    /// Returns `(parent, dist_m)` arrays: `parent[c] == u32::MAX` marks an
    /// unreached cell (the source is its own parent), `dist_m` accumulates
    /// center-to-center path length in metres.
    pub fn bfs(&self, src: u32) -> (Vec<u32>, Vec<f64>) {
        let n = self.len();
        let mut parent = vec![u32::MAX; n];
        let mut dist = vec![f64::INFINITY; n];
        let mut queue = std::collections::VecDeque::new();
        parent[src as usize] = src;
        dist[src as usize] = 0.0;
        queue.push_back(src);
        while let Some(c) = queue.pop_front() {
            for nb in self.neighbors(c) {
                if parent[nb as usize] == u32::MAX {
                    parent[nb as usize] = c;
                    dist[nb as usize] = dist[c as usize] + self.center_distance(c, nb);
                    queue.push_back(nb);
                }
            }
        }
        (parent, dist)
    }
}

#[cfg(test)]
mod tests {
    use std::collections::BTreeMap;

    use proptest::prelude::*;

    use super::*;

    /// The tree-indexed field the sorted-column index replaced, kept as the
    /// reference its outputs must equal bit for bit: a `BTreeMap` from
    /// coordinates to cell id, one lookup per neighborhood offset.
    struct Oracle {
        cell: f64,
        coords: Vec<(i32, i32)>,
        index: BTreeMap<(i32, i32), u32>,
        count: Vec<u32>,
        node_cell: Vec<u32>,
        contention_offsets: Vec<(i32, i32)>,
        reach2: f64,
    }

    const LINK_OFFSETS: [(i32, i32); 12] = [
        (-2, 0),
        (-1, -1),
        (-1, 0),
        (-1, 1),
        (0, -2),
        (0, -1),
        (0, 1),
        (0, 2),
        (1, -1),
        (1, 0),
        (1, 1),
        (2, 0),
    ];

    impl Oracle {
        fn bin(positions: &[Point2], cell: f64, cs_range: f64) -> Oracle {
            let key = |p: &Point2| ((p.x / cell).floor() as i32, (p.y / cell).floor() as i32);
            let mut index: BTreeMap<(i32, i32), u32> = BTreeMap::new();
            for p in positions {
                let next = index.len() as u32;
                index.entry(key(p)).or_insert(next);
            }
            let coords: Vec<(i32, i32)> = index.keys().copied().collect();
            for (i, c) in coords.iter().enumerate() {
                *index.get_mut(c).expect("coord from index") = i as u32;
            }
            let mut count = vec![0u32; coords.len()];
            let mut node_cell = Vec::with_capacity(positions.len());
            for p in positions {
                let c = index[&key(p)];
                count[c as usize] += 1;
                node_cell.push(c);
            }
            let reach = (cs_range / cell).max(0.0);
            let r = reach.ceil() as i32;
            let reach2 = reach * reach;
            let mut contention_offsets = Vec::new();
            for dx in -r..=r {
                for dy in -r..=r {
                    if (dx * dx + dy * dy) as f64 <= reach2 {
                        contention_offsets.push((dx, dy));
                    }
                }
            }
            Oracle {
                cell,
                coords,
                index,
                count,
                node_cell,
                contention_offsets,
                reach2,
            }
        }

        fn neighbors(&self, c: u32) -> Vec<u32> {
            let (ix, iy) = self.coords[c as usize];
            LINK_OFFSETS
                .iter()
                .filter_map(|&(dx, dy)| self.index.get(&(ix + dx, iy + dy)).copied())
                .collect()
        }

        fn integrate(&self, load: &[f64]) -> Vec<f64> {
            self.coords
                .iter()
                .map(|&(ix, iy)| {
                    let mut u = 0.0;
                    for &(dx, dy) in &self.contention_offsets {
                        if let Some(&n) = self.index.get(&(ix + dx, iy + dy)) {
                            u += load[n as usize];
                        }
                    }
                    u
                })
                .collect()
        }

        fn util_from(&self, deposits: &[(u32, f64)], at: u32) -> f64 {
            let (ax, ay) = self.coords[at as usize];
            deposits
                .iter()
                .map(|&(c, amount)| {
                    let (cx, cy) = self.coords[c as usize];
                    let (dx, dy) = (cx - ax, cy - ay);
                    if f64::from(dx * dx + dy * dy) <= self.reach2 {
                        amount
                    } else {
                        0.0
                    }
                })
                .sum()
        }

        fn bfs(&self, src: u32) -> (Vec<u32>, Vec<f64>) {
            let center = |c: u32| {
                let (ix, iy) = self.coords[c as usize];
                Point2::new(
                    (f64::from(ix) + 0.5) * self.cell,
                    (f64::from(iy) + 0.5) * self.cell,
                )
            };
            let n = self.coords.len();
            let mut parent = vec![u32::MAX; n];
            let mut dist = vec![f64::INFINITY; n];
            let mut queue = std::collections::VecDeque::new();
            parent[src as usize] = src;
            dist[src as usize] = 0.0;
            queue.push_back(src);
            while let Some(c) = queue.pop_front() {
                for nb in self.neighbors(c) {
                    if parent[nb as usize] == u32::MAX {
                        parent[nb as usize] = c;
                        dist[nb as usize] = dist[c as usize] + center(c).distance(&center(nb));
                        queue.push_back(nb);
                    }
                }
            }
            (parent, dist)
        }
    }

    fn bits(v: &[f64]) -> Vec<u64> {
        v.iter().map(|x| x.to_bits()).collect()
    }

    /// Node positions for one oracle case. `shape` picks the layout:
    /// 0 a dense block around the origin, 1 a single cell, 2 sparse columns
    /// (a wide, flat strip), 3 a wide block on exact cell boundaries, 4 a
    /// wide block. Each raw point is `(x, y, fraction mode)`; the mode puts
    /// the point on a cell boundary, mid-cell, anywhere, or just below the
    /// next boundary.
    fn layout(shape: u8, raw: &[(u32, u32, u8)], cell: f64) -> Vec<Point2> {
        let (w, h): (u32, u32) = match shape {
            0 => (12, 12),
            1 => (1, 1),
            2 => (600, 4),
            _ => (80, 40),
        };
        let (x0, y0) = if shape == 1 {
            (raw[0].0 % 7, raw[0].1 % 7)
        } else {
            (w / 2, h / 2)
        };
        raw.iter()
            .map(|&(x, y, mode)| {
                let mode = if shape == 3 { 0 } else { mode };
                let frac = |v: u32| match mode {
                    0 => 0.0,
                    1 => 0.5,
                    2 => f64::from(v % 1000) / 1000.0,
                    _ => 1.0 - 1e-12,
                };
                let (ix, iy) = if shape == 1 {
                    (0, 0)
                } else {
                    ((x % w) as i32, (y % h) as i32)
                };
                Point2::new(
                    (f64::from(ix) - f64::from(x0) + frac(y)) * cell,
                    (f64::from(iy) - f64::from(y0) + frac(x)) * cell,
                )
            })
            .collect()
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        #[test]
        fn sorted_column_index_matches_the_tree_oracle(
            shape in 0u8..5,
            raw in prop::collection::vec((0u32..1_000_000, 0u32..1_000_000, 0u8..4), 1..400),
            cell in prop_oneof![Just(125.0), 0.5f64..300.0],
            cs_ratio in prop_oneof![0.0f64..1.0, 1.0f64..6.0, Just(2.0), Just(3.0), Just(4.4)],
            loads in prop::collection::vec(0.0f64..1.0, 1..64),
            picks in prop::collection::vec(0u32..1_000_000, 1..8),
        ) {
            let positions = layout(shape, &raw, cell);
            let cs_range = cs_ratio * cell;
            let oracle = Oracle::bin(&positions, cell, cs_range);
            let mut field = Field::bin(&positions, cell, cs_range);
            prop_assert_eq!(&field.coords, &oracle.coords);
            prop_assert_eq!(&field.count, &oracle.count);
            prop_assert_eq!(&field.node_cell, &oracle.node_cell);

            let n = field.len() as u32;
            for (c, l) in field.load.iter_mut().enumerate() {
                // Every third cell carries no load, so zero terms enter the sums.
                *l = if c % 3 == 2 { 0.0 } else { loads[c % loads.len()] };
            }
            let expected = bits(&oracle.integrate(&field.load));
            field.integrate();
            prop_assert_eq!(bits(&field.util), expected);

            for c in 0..n {
                prop_assert_eq!(field.neighbors(c).collect::<Vec<_>>(), oracle.neighbors(c));
            }
            let deposits: Vec<(u32, f64)> =
                picks.iter().map(|&p| (p % n, f64::from(p) * 1e-6)).collect();
            for &p in &picks {
                let (src, at) = (p % n, (p / 7) % n);
                let (parent, dist) = field.bfs(src);
                let (o_parent, o_dist) = oracle.bfs(src);
                prop_assert_eq!(parent, o_parent);
                prop_assert_eq!(bits(&dist), bits(&o_dist));
                prop_assert_eq!(
                    field.util_from(&deposits, at).to_bits(),
                    oracle.util_from(&deposits, at).to_bits()
                );
            }
        }
    }

    #[test]
    fn disk_spans_enumerate_the_disk_row_major() {
        for reach2 in [0.0f64, 0.16, 1.0, 2.0, 4.0, 19.36, 25.0, 30.25] {
            let r = reach2.sqrt().ceil() as i32 + 1;
            let mut row_major = Vec::new();
            for dx in -r..=r {
                for dy in -r..=r {
                    if f64::from(dx * dx + dy * dy) <= reach2 {
                        row_major.push((dx, dy));
                    }
                }
            }
            let from_spans: Vec<(i32, i32)> = disk_spans(reach2)
                .into_iter()
                .flat_map(|(dx, lo, hi)| (lo..=hi).map(move |dy| (dx, dy)))
                .collect();
            assert_eq!(from_spans, row_major, "reach2 = {reach2}");
        }
        assert_eq!(disk_spans(4.0), LINK_SPANS);
    }

    fn line(nodes: usize, spacing: f64) -> Vec<Point2> {
        (0..nodes)
            .map(|i| Point2::new(i as f64 * spacing, 0.0))
            .collect()
    }

    #[test]
    fn binning_counts_every_node() {
        let f = Field::bin(&line(10, 50.0), 125.0, 550.0);
        assert_eq!(f.count.iter().sum::<u32>(), 10);
        assert_eq!(f.node_cell.len(), 10);
    }

    #[test]
    fn bfs_spans_a_connected_line() {
        let f = Field::bin(&line(20, 100.0), 125.0, 550.0);
        let src = f.node_cell[0];
        let (parent, dist) = f.bfs(src);
        let last = f.node_cell[19];
        assert_ne!(parent[last as usize], u32::MAX, "line must be connected");
        // 19 gaps of 100 m ≈ 1.9 km of path, measured at cell granularity.
        assert!(dist[last as usize] > 1000.0 && dist[last as usize] < 3000.0);
    }

    #[test]
    fn bfs_respects_a_gap() {
        let mut pts = line(5, 100.0);
        // Second cluster 2 km away: far beyond rx range.
        pts.extend((0..5).map(|i| Point2::new(2000.0 + i as f64 * 100.0, 0.0)));
        let f = Field::bin(&pts, 125.0, 550.0);
        let (parent, _) = f.bfs(f.node_cell[0]);
        assert_eq!(parent[f.node_cell[9] as usize], u32::MAX);
    }
}
