use crate::{FuMix, LaneConfig};
use revel_dfg::FuClass;

/// What occupies a mesh tile.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PeKind {
    /// A dedicated systolic PE hosting a single FU of the given class.
    Systolic(FuClass),
    /// A temporally-shared dataflow PE (triggered instructions); can
    /// execute any op class from its instruction buffer.
    Dataflow,
}

/// Grid coordinate of a mesh tile: `(x, y)` with `x` growing rightwards and
/// `y` growing downwards.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct MeshCoord {
    /// Column.
    pub x: u8,
    /// Row.
    pub y: u8,
}

impl core::fmt::Display for MeshCoord {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(f, "({},{})", self.x, self.y)
    }
}

/// One tile of the lane's spatial mesh.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PeSlot {
    /// Position in the grid.
    pub coord: MeshCoord,
    /// Tile contents.
    pub kind: PeKind,
}

/// A directed link of the circuit-switched mesh between 4-neighbour tiles.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct MeshLink {
    /// Source tile.
    pub from: MeshCoord,
    /// Destination tile.
    pub to: MeshCoord,
}

/// The spatial mesh of one lane: a `width × height` grid of PE tiles joined
/// by a 64-bit circuit-switched mesh (Table III).
///
/// Dataflow PEs are placed in the bottom-right corner, matching the paper's
/// note that they are "grouped on the right side of the spatial fabric to
/// enable simpler physical design". Systolic FU classes are interleaved so
/// multipliers and adders are never far apart (inner loops alternate them),
/// with the rare div/sqrt units near the dataflow corner where outer-loop
/// regions live.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Mesh {
    width: usize,
    height: usize,
    slots: Vec<PeSlot>,
}

impl Mesh {
    /// Builds the mesh for a lane configuration.
    ///
    /// # Panics
    /// Panics if the FU mix plus dataflow PEs don't exactly fill the grid.
    pub fn for_lane(cfg: &LaneConfig) -> Self {
        Self::build(cfg.mesh_width, cfg.mesh_height, cfg.fu_mix, cfg.num_dataflow_pes)
    }

    /// Builds a mesh with explicit parameters.
    ///
    /// # Panics
    /// Panics if `fu_mix.total() + num_dpes != width * height`.
    pub fn build(width: usize, height: usize, fu_mix: FuMix, num_dpes: usize) -> Self {
        assert_eq!(
            fu_mix.total() + num_dpes,
            width * height,
            "FU mix ({}) + dataflow PEs ({num_dpes}) must fill the {width}x{height} grid",
            fu_mix.total()
        );
        // Assign dataflow PEs to the last tiles (bottom-right, row-major),
        // div/sqrt just before them, then interleave adders/multipliers.
        let total = width * height;
        let mut kinds = Vec::with_capacity(total);
        let mut add_left = fu_mix.adders;
        let mut mul_left = fu_mix.multipliers;
        let systolic_tiles = total - num_dpes;
        let div_start = systolic_tiles - fu_mix.div_sqrt;
        for idx in 0..total {
            let kind = if idx >= systolic_tiles {
                PeKind::Dataflow
            } else if idx >= div_start {
                PeKind::Systolic(FuClass::DivSqrt)
            } else if (idx % 2 == 0 && add_left > 0) || mul_left == 0 {
                add_left -= 1;
                PeKind::Systolic(FuClass::Adder)
            } else {
                mul_left -= 1;
                PeKind::Systolic(FuClass::Multiplier)
            };
            kinds.push(kind);
        }
        let slots = kinds
            .into_iter()
            .enumerate()
            .map(|(idx, kind)| PeSlot {
                coord: MeshCoord { x: (idx % width) as u8, y: (idx / width) as u8 },
                kind,
            })
            .collect();
        Mesh { width, height, slots }
    }

    /// Grid width.
    pub fn width(&self) -> usize {
        self.width
    }

    /// Grid height.
    pub fn height(&self) -> usize {
        self.height
    }

    /// All tiles in row-major order.
    pub fn slots(&self) -> &[PeSlot] {
        &self.slots
    }

    /// The tile at a coordinate.
    ///
    /// # Panics
    /// Panics if the coordinate is outside the grid.
    pub fn slot(&self, c: MeshCoord) -> &PeSlot {
        assert!((c.x as usize) < self.width && (c.y as usize) < self.height);
        &self.slots[c.y as usize * self.width + c.x as usize]
    }

    /// Tiles hosting an FU compatible with `class` in systolic mode.
    pub fn systolic_slots(&self, class: FuClass) -> impl Iterator<Item = &PeSlot> {
        self.slots.iter().filter(move |s| s.kind == PeKind::Systolic(class))
    }

    /// Tiles hosting dataflow PEs.
    pub fn dataflow_slots(&self) -> impl Iterator<Item = &PeSlot> {
        self.slots.iter().filter(|s| s.kind == PeKind::Dataflow)
    }

    /// 4-neighbourhood of a coordinate.
    pub fn neighbors(&self, c: MeshCoord) -> Vec<MeshCoord> {
        self.neighbors_iter(c).collect()
    }

    /// 4-neighbourhood of a coordinate without allocating, in
    /// [`Mesh::neighbors`]' order: left, right, up, down, skipping those
    /// outside the grid.
    pub fn neighbors_iter(&self, c: MeshCoord) -> impl Iterator<Item = MeshCoord> {
        let MeshCoord { x, y } = c;
        [
            (x > 0).then(|| MeshCoord { x: x - 1, y }),
            ((x as usize) + 1 < self.width).then(|| MeshCoord { x: x + 1, y }),
            (y > 0).then(|| MeshCoord { x, y: y - 1 }),
            ((y as usize) + 1 < self.height).then(|| MeshCoord { x, y: y + 1 }),
        ]
        .into_iter()
        .flatten()
    }

    /// All directed links of the mesh.
    pub fn links(&self) -> Vec<MeshLink> {
        let mut links = Vec::new();
        for s in &self.slots {
            for n in self.neighbors(s.coord) {
                links.push(MeshLink { from: s.coord, to: n });
            }
        }
        links
    }

    /// Manhattan distance between two tiles (lower bound on hop count).
    pub fn manhattan(&self, a: MeshCoord, b: MeshCoord) -> u32 {
        (a.x.abs_diff(b.x) + a.y.abs_diff(b.y)) as u32
    }

    /// Row-major index of a tile (the bit position used by
    /// [`FabricMask::dead_pes`]).
    pub fn tile_index(&self, c: MeshCoord) -> usize {
        c.y as usize * self.width + c.x as usize
    }

    /// The tile at a row-major index (inverse of [`Mesh::tile_index`]).
    ///
    /// # Panics
    /// Panics if `idx` is outside the grid.
    pub fn tile_at(&self, idx: usize) -> MeshCoord {
        assert!(idx < self.width * self.height, "tile index {idx} outside the grid");
        MeshCoord { x: (idx % self.width) as u8, y: (idx / self.width) as u8 }
    }

    /// Bit position of the undirected link between two 4-neighbour tiles
    /// (the indexing used by [`FabricMask::dead_links`]): each tile owns
    /// bit `2·tile_index` for its rightward link and `2·tile_index + 1`
    /// for its downward link. `None` when the tiles are not 4-neighbours.
    pub fn link_bit(&self, a: MeshCoord, b: MeshCoord) -> Option<u32> {
        let (lo, hi) = if (a.y, a.x) <= (b.y, b.x) { (a, b) } else { (b, a) };
        if lo.y == hi.y && lo.x + 1 == hi.x {
            Some(2 * self.tile_index(lo) as u32)
        } else if lo.x == hi.x && lo.y + 1 == hi.y {
            Some(2 * self.tile_index(lo) as u32 + 1)
        } else {
            None
        }
    }
}

/// A mask of permanently-failed fabric resources, used by the degraded
/// scheduler to re-place and re-route a program around broken hardware.
///
/// Bit `i` of `dead_pes` marks the tile at row-major index `i`
/// ([`Mesh::tile_index`]) as dead: no instruction may be placed there. A
/// dead PE keeps a live mesh switch — routes may still pass *through* its
/// tile — because in the REVEL design the circuit-switched network is a
/// separate structure from the FU datapath, and a stuck FU does not sever
/// the crossbar around it.
///
/// Bit `b` of `dead_links` marks the *undirected* mesh link at bit
/// position `b` ([`Mesh::link_bit`]) as dead in both directions: no route
/// may traverse it.
///
/// The 64-bit fields cover meshes up to 64 tiles / 32 tiles-worth of link
/// bits, comfortably beyond the paper's 5×5 lane.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub struct FabricMask {
    /// Bit `i` set ⇒ the tile at row-major index `i` is dead.
    pub dead_pes: u64,
    /// Bit `b` set ⇒ the undirected link at bit position `b` is dead.
    pub dead_links: u64,
}

impl FabricMask {
    /// The fully-healthy fabric (no dead resources).
    pub const HEALTHY: FabricMask = FabricMask { dead_pes: 0, dead_links: 0 };

    /// True when nothing is masked out (scheduling is unchanged).
    pub fn is_empty(&self) -> bool {
        self.dead_pes == 0 && self.dead_links == 0
    }

    /// True when the tile at row-major index `idx` is dead.
    pub fn pe_dead(&self, idx: usize) -> bool {
        idx < 64 && self.dead_pes & (1u64 << idx) != 0
    }

    /// True when the undirected link at bit position `bit` is dead.
    pub fn link_dead(&self, bit: u32) -> bool {
        bit < 64 && self.dead_links & (1u64 << bit) != 0
    }

    /// Marks the tile at row-major index `idx` dead.
    ///
    /// # Panics
    /// Panics if `idx` is 64 or more (outside the mask's coverage).
    pub fn with_dead_pe(mut self, idx: usize) -> Self {
        assert!(idx < 64, "tile index {idx} outside the 64-bit mask");
        self.dead_pes |= 1u64 << idx;
        self
    }

    /// Marks the undirected link at bit position `bit` dead.
    ///
    /// # Panics
    /// Panics if `bit` is 64 or more (outside the mask's coverage).
    pub fn with_dead_link(mut self, bit: u32) -> Self {
        assert!(bit < 64, "link bit {bit} outside the 64-bit mask");
        self.dead_links |= 1u64 << bit;
        self
    }

    /// Number of dead tiles.
    pub fn dead_pe_count(&self) -> u32 {
        self.dead_pes.count_ones()
    }

    /// Row-major indices of dead tiles, ascending.
    pub fn dead_pe_indices(&self) -> impl Iterator<Item = usize> + '_ {
        (0..64).filter(|i| self.pe_dead(*i))
    }
}

impl core::fmt::Display for FabricMask {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(f, "pes={:#x} links={:#x}", self.dead_pes, self.dead_links)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn paper_mesh() -> Mesh {
        Mesh::for_lane(&LaneConfig::paper_default())
    }

    #[test]
    fn mesh_fills_grid() {
        let m = paper_mesh();
        assert_eq!(m.slots().len(), 25);
        assert_eq!(m.systolic_slots(FuClass::Adder).count(), 12);
        assert_eq!(m.systolic_slots(FuClass::Multiplier).count(), 9);
        assert_eq!(m.systolic_slots(FuClass::DivSqrt).count(), 3);
        assert_eq!(m.dataflow_slots().count(), 1);
    }

    #[test]
    fn dataflow_pe_in_bottom_right() {
        let m = paper_mesh();
        let d: Vec<_> = m.dataflow_slots().collect();
        assert_eq!(d[0].coord, MeshCoord { x: 4, y: 4 });
    }

    #[test]
    fn neighbors_at_corner_and_center() {
        let m = paper_mesh();
        assert_eq!(m.neighbors(MeshCoord { x: 0, y: 0 }).len(), 2);
        assert_eq!(m.neighbors(MeshCoord { x: 2, y: 2 }).len(), 4);
        assert_eq!(m.neighbors(MeshCoord { x: 2, y: 0 }).len(), 3);
    }

    #[test]
    fn link_count() {
        // 2 * (w-1) * h horizontal + 2 * w * (h-1) vertical directed links.
        let m = paper_mesh();
        assert_eq!(m.links().len(), 2 * 4 * 5 + 2 * 5 * 4);
    }

    #[test]
    fn manhattan_distance() {
        let m = paper_mesh();
        assert_eq!(m.manhattan(MeshCoord { x: 0, y: 0 }, MeshCoord { x: 4, y: 4 }), 8);
        assert_eq!(m.manhattan(MeshCoord { x: 2, y: 3 }, MeshCoord { x: 2, y: 3 }), 0);
    }

    #[test]
    #[should_panic(expected = "must fill")]
    fn wrong_mix_panics() {
        let _ = Mesh::build(2, 2, FuMix { adders: 1, multipliers: 1, div_sqrt: 1 }, 2);
    }

    #[test]
    fn slot_lookup_roundtrip() {
        let m = paper_mesh();
        for s in m.slots() {
            assert_eq!(m.slot(s.coord), s);
        }
    }

    #[test]
    fn tile_index_roundtrip() {
        let m = paper_mesh();
        for (i, s) in m.slots().iter().enumerate() {
            assert_eq!(m.tile_index(s.coord), i);
            assert_eq!(m.tile_at(i), s.coord);
        }
    }

    #[test]
    fn link_bits_are_unique_and_undirected() {
        let m = paper_mesh();
        let mut seen = std::collections::HashSet::new();
        for l in m.links() {
            let bit = m.link_bit(l.from, l.to).expect("4-neighbour link");
            assert_eq!(m.link_bit(l.to, l.from), Some(bit), "undirected indexing");
            assert!(bit < 64, "bit {bit} fits the mask");
            seen.insert(bit);
        }
        // 40 undirected links in a 5×5 mesh (each counted once).
        assert_eq!(seen.len(), 40);
        // Non-adjacent tiles have no link bit.
        assert_eq!(m.link_bit(MeshCoord { x: 0, y: 0 }, MeshCoord { x: 2, y: 0 }), None);
        assert_eq!(m.link_bit(MeshCoord { x: 0, y: 0 }, MeshCoord { x: 1, y: 1 }), None);
    }

    #[test]
    fn fabric_mask_basics() {
        let mask = FabricMask::HEALTHY;
        assert!(mask.is_empty());
        let mask = mask.with_dead_pe(3).with_dead_pe(17).with_dead_link(5);
        assert!(!mask.is_empty());
        assert!(mask.pe_dead(3) && mask.pe_dead(17) && !mask.pe_dead(4));
        assert!(mask.link_dead(5) && !mask.link_dead(6));
        assert_eq!(mask.dead_pe_count(), 2);
        assert_eq!(mask.dead_pe_indices().collect::<Vec<_>>(), vec![3, 17]);
        assert_eq!(mask.to_string(), "pes=0x20008 links=0x20");
    }
}
