//! AIE array topology and kernel placement.
//!
//! Models the physical resource the paper's kernels map onto: a 2-D grid of
//! tiles (the VC1902's AIE array is 50 × 8). Placement assigns each kernel
//! to a tile; window (ping-pong buffer) connections require the two kernels
//! to share a memory bank, i.e. to sit on *adjacent* tiles, which the placer
//! checks — the same constraint `aiecompiler` enforces.

use cgsim_core::{CheckedGraph, ConnectorId, FlatGraph, GraphError, PortKind, Realm};
use serde::{Deserialize, Serialize};
use std::collections::HashMap;

/// Coordinates of one tile (column, row).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct TileCoord {
    /// Column in the array.
    pub col: u32,
    /// Row in the array.
    pub row: u32,
}

impl TileCoord {
    /// Manhattan distance between two tiles (stream-switch hop estimate).
    pub fn distance(&self, other: &TileCoord) -> u32 {
        self.col.abs_diff(other.col) + self.row.abs_diff(other.row)
    }

    /// Whether two tiles can share a local memory bank (AIE cores access
    /// the data memories of their four neighbours).
    pub fn is_neighbor(&self, other: &TileCoord) -> bool {
        self.distance(other) == 1
    }
}

/// Dimensions of an AIE array.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct ArrayGeometry {
    /// Number of columns.
    pub cols: u32,
    /// Number of rows.
    pub rows: u32,
}

impl ArrayGeometry {
    /// The VC1902 (Versal AI Core series) array used in the paper's
    /// examples: 50 columns × 8 rows.
    pub const VC1902: ArrayGeometry = ArrayGeometry { cols: 50, rows: 8 };

    /// Total tiles.
    pub fn tiles(&self) -> u32 {
        self.cols * self.rows
    }
}

/// A placement of graph kernels onto array tiles.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct Placement {
    /// Geometry placed into.
    pub geometry: ArrayGeometry,
    /// Tile per kernel, in kernel order (AIE-realm kernels only get
    /// entries; others are `None`).
    pub tiles: Vec<Option<TileCoord>>,
    /// Total stream-switch hops across all kernel-to-kernel connections.
    pub total_hops: u32,
}

impl Placement {
    /// Place the AIE-realm kernels of a checked graph onto the array.
    ///
    /// Strategy: snake order along rows (the layout AMD's examples use for
    /// short pipelines), which makes consecutive kernels neighbours — a
    /// requirement for their window connections.
    pub fn place(checked: &CheckedGraph, geometry: ArrayGeometry) -> Result<Placement, GraphError> {
        let graph = checked.graph();
        let aie_kernels: Vec<usize> = graph
            .kernels
            .iter()
            .enumerate()
            .filter(|(_, k)| k.realm == Realm::Aie)
            .map(|(i, _)| i)
            .collect();
        if aie_kernels.len() as u32 > geometry.tiles() {
            return Err(GraphError::UnsupportedRealm {
                kernel: format!(
                    "{} kernels exceed the {}-tile array",
                    aie_kernels.len(),
                    geometry.tiles()
                ),
                realm: Realm::Aie,
            });
        }

        let mut tiles = vec![None; graph.kernels.len()];
        for (ord, &ki) in aie_kernels.iter().enumerate() {
            let row = ord as u32 / geometry.cols;
            let col_in_row = ord as u32 % geometry.cols;
            // Snake: odd rows run right-to-left so step `ord → ord+1` is
            // always a 1-hop move.
            let col = if row.is_multiple_of(2) {
                col_in_row
            } else {
                geometry.cols - 1 - col_in_row
            };
            tiles[ki] = Some(TileCoord { col, row });
        }

        // Hops over every kernel-to-kernel connection; a window
        // (shared-buffer) connection must also join adjacent tiles, as
        // memory sharing requires.
        let topo = checked.topology();
        let mut total_hops = 0;
        for (ci, conn) in graph.connectors.iter().enumerate() {
            let c = ConnectorId::new(ci);
            for p in topo.producers(c) {
                for q in topo.consumers(c) {
                    let (Some(a), Some(b)) = (tiles[p.kernel.index()], tiles[q.kernel.index()])
                    else {
                        continue;
                    };
                    total_hops += a.distance(&b);
                    if conn.kind == PortKind::Window && !a.is_neighbor(&b) && a != b {
                        return Err(GraphError::IncompatibleSettings {
                            connector: c,
                            conflict: cgsim_core::SettingsConflict::WindowBytes(
                                a.col * 1000 + a.row,
                                b.col * 1000 + b.row,
                            ),
                        });
                    }
                }
            }
        }
        Ok(Placement {
            geometry,
            tiles,
            total_hops,
        })
    }

    /// Tiles actually occupied.
    pub fn used_tiles(&self) -> usize {
        self.tiles.iter().flatten().count()
    }

    /// A map from kernel instance name to its tile, for reports.
    pub fn by_instance(&self, graph: &FlatGraph) -> HashMap<String, TileCoord> {
        graph
            .kernels
            .iter()
            .zip(&self.tiles)
            .filter_map(|(k, t)| t.map(|t| (k.instance.clone(), t)))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cgsim_core::{GraphBuilder, KernelDecl, KernelMeta, PortSettings, PortSig};

    struct P;
    impl KernelDecl for P {
        const NAME: &'static str = "p";
        const REALM: Realm = Realm::Aie;
        fn meta() -> KernelMeta {
            KernelMeta {
                name: Self::NAME.into(),
                realm: Self::REALM,
                ports: vec![
                    PortSig::read::<f32>("in", PortSettings::DEFAULT),
                    PortSig::write::<f32>("out", PortSettings::DEFAULT),
                ],
            }
        }
    }

    fn chain(n: usize) -> FlatGraph {
        GraphBuilder::build("chain", |g| {
            let mut prev = g.input::<f32>("a");
            for _ in 0..n {
                let next = g.wire::<f32>();
                g.invoke::<P>(&[prev.id(), next.id()])?;
                prev = next;
            }
            g.output(&prev);
            Ok(())
        })
        .unwrap()
    }

    #[test]
    fn pipeline_places_on_adjacent_tiles() {
        let g = chain(4);
        let p = Placement::place(&CheckedGraph::new(&g).unwrap(), ArrayGeometry::VC1902).unwrap();
        assert_eq!(p.used_tiles(), 4);
        // 3 kernel-to-kernel connections, each 1 hop.
        assert_eq!(p.total_hops, 3);
    }

    #[test]
    fn snake_wraps_rows_adjacently() {
        let g = chain(7);
        let small = ArrayGeometry { cols: 4, rows: 4 };
        let p = Placement::place(&CheckedGraph::new(&g).unwrap(), small).unwrap();
        // All 6 inter-kernel links still 1 hop thanks to the snake.
        assert_eq!(p.total_hops, 6);
        let coords: Vec<_> = p.tiles.iter().flatten().collect();
        assert_eq!(coords[3], &TileCoord { col: 3, row: 0 });
        assert_eq!(coords[4], &TileCoord { col: 3, row: 1 });
    }

    #[test]
    fn window_connection_requires_adjacency() {
        struct W;
        impl KernelDecl for W {
            const NAME: &'static str = "w";
            const REALM: Realm = Realm::Aie;
            fn meta() -> KernelMeta {
                KernelMeta {
                    name: Self::NAME.into(),
                    realm: Self::REALM,
                    ports: vec![
                        PortSig::read::<f32>("in", PortSettings::new().window_bytes(256)),
                        PortSig::write::<f32>("out", PortSettings::new().window_bytes(256)),
                    ],
                }
            }
        }
        let g = GraphBuilder::build("win", |g| {
            let a = g.input::<f32>("a");
            let b = g.wire::<f32>();
            let c = g.wire::<f32>();
            g.invoke::<W>(&[a.id(), b.id()])?;
            g.invoke::<W>(&[b.id(), c.id()])?;
            g.output(&c);
            Ok(())
        })
        .unwrap();
        // Adjacent in the snake → OK.
        Placement::place(&CheckedGraph::new(&g).unwrap(), ArrayGeometry::VC1902).unwrap();
    }

    #[test]
    fn oversubscription_is_rejected() {
        let g = chain(5);
        let tiny = ArrayGeometry { cols: 2, rows: 2 };
        assert!(Placement::place(&CheckedGraph::new(&g).unwrap(), tiny).is_err());
    }

    #[test]
    fn geometry_tiles() {
        assert_eq!(ArrayGeometry::VC1902.tiles(), 400);
    }

    #[test]
    fn distance_and_neighborhood() {
        let a = TileCoord { col: 2, row: 3 };
        let b = TileCoord { col: 2, row: 4 };
        let c = TileCoord { col: 4, row: 3 };
        assert_eq!(a.distance(&b), 1);
        assert!(a.is_neighbor(&b));
        assert_eq!(a.distance(&c), 2);
        assert!(!a.is_neighbor(&c));
    }

    #[test]
    fn by_instance_names_tiles() {
        let g = chain(2);
        let p = Placement::place(&CheckedGraph::new(&g).unwrap(), ArrayGeometry::VC1902).unwrap();
        let m = p.by_instance(&g);
        assert_eq!(m["p_0"], TileCoord { col: 0, row: 0 });
        assert_eq!(m["p_1"], TileCoord { col: 1, row: 0 });
    }
}
