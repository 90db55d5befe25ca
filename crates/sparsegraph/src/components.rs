use crate::Graph;

/// The connected components of a graph.
#[derive(Debug, Clone)]
pub struct Components {
    /// Component id of each vertex, in `0..num_components`.
    pub component_of: Vec<u32>,
    /// Vertices of each component, in BFS discovery order.
    pub members: Vec<Vec<u32>>,
}

impl Components {
    /// Number of connected components.
    pub fn count(&self) -> usize {
        self.members.len()
    }
}

/// Compute connected components by repeated BFS.
///
/// The orderings find components with [`LevelStructure`]'s stamp sweep
/// instead (one search per component, nothing allocated per
/// component); this plain BFS is the oracle their tests compare
/// against.
///
/// [`LevelStructure`]: crate::LevelStructure
pub fn connected_components(g: &Graph) -> Components {
    let n = g.num_vertices();
    let mut component_of = vec![u32::MAX; n];
    let mut members: Vec<Vec<u32>> = Vec::new();
    for s in 0..n {
        if component_of[s] != u32::MAX {
            continue;
        }
        let cid = members.len() as u32;
        // The discovery order is the BFS queue: vertices are visited
        // in the order they are pushed.
        let mut verts = vec![s as u32];
        component_of[s] = cid;
        let mut head = 0;
        while let Some(&v) = verts.get(head) {
            head += 1;
            for &u in g.neighbors(v as usize) {
                if component_of[u as usize] == u32::MAX {
                    component_of[u as usize] = cid;
                    verts.push(u);
                }
            }
        }
        members.push(verts);
    }
    Components {
        component_of,
        members,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn single_component() {
        let g = Graph::from_adjacency(vec![0, 1, 2], vec![1, 0]).unwrap();
        let c = connected_components(&g);
        assert_eq!(c.count(), 1);
        assert_eq!(c.members[0].len(), 2);
    }

    #[test]
    fn multiple_components_and_isolated_vertices() {
        // Edge 0-1, isolated 2, edge 3-4.
        let g = Graph::from_adjacency(vec![0, 1, 2, 2, 3, 4], vec![1, 0, 4, 3]).unwrap();
        let c = connected_components(&g);
        assert_eq!(c.count(), 3);
        assert_eq!(c.component_of[0], c.component_of[1]);
        assert_eq!(c.component_of[3], c.component_of[4]);
        assert_ne!(c.component_of[0], c.component_of[2]);
    }

    #[test]
    fn all_isolated() {
        let g = Graph::from_adjacency(vec![0, 0, 0, 0], vec![]).unwrap();
        let c = connected_components(&g);
        assert_eq!(c.count(), 3);
        for m in &c.members {
            assert_eq!(m.len(), 1);
        }
    }

    #[test]
    fn discovery_order_is_bfs() {
        // Path 0-1-2: starting at 0, discovery order is 0,1,2.
        let g = Graph::from_adjacency(vec![0, 1, 3, 4], vec![1, 0, 2, 1]).unwrap();
        let c = connected_components(&g);
        assert_eq!(c.members[0], vec![0, 1, 2]);
    }
}
