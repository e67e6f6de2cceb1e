//! Compact binary wire encoding of program trees (the tree layer of
//! the store's `PSR2` record format).
//!
//! The encoding is hand-rolled — the workspace deliberately carries no
//! binary serialization dependency — and versioned at the *frame* level
//! by the store (`PSR2` magic); this module defines only the payload
//! bytes. Layout, all integers LEB128 varints unless noted:
//!
//! ```text
//! tree      := varint node_count, node*
//! node      := tag u8, varint length, kind_payload, children
//! tag       := kind (low 3 bits) | NOWAIT 0x08 | RLE 0x10 | MEM 0x20
//! kind_payload:
//!   Root/U  := ε
//!   Sec     := name, [mem], burden
//!   Task    := name
//!   L       := varint lock
//!   Pipe    := name, [mem], burden
//!   Stage   := varint stage
//! name      := varint byte_len, utf8 bytes
//! mem       := 4 varints (instructions, cycles, llc_misses,
//!              dram_bytes), f64 traffic_mbps        (present iff MEM)
//! burden    := varint n, n × (varint threads, f64 factor)
//! children  := varint n, RLE ? n × (varint node, varint count,
//!              varint total_length) : n × varint node
//! f64       := 8 bytes, IEEE-754 bit pattern little-endian (exact)
//! ```
//!
//! Node order is **storage order** (the original arena indices), so
//! decode reproduces the identical [`ProgramTree`] — same ids, same
//! `Plain`/`Rle` variants — and every serde-JSON round-trip guarantee
//! carries over byte-for-byte (pinned in `tests/psr2_codec.rs`).

use crate::node::{
    BurdenTable, ChildList, Cycles, MemProfile, Node, NodeId, NodeKind, ProgramTree, Run,
};

const K_ROOT: u8 = 0;
const K_SEC: u8 = 1;
const K_TASK: u8 = 2;
const K_U: u8 = 3;
const K_L: u8 = 4;
const K_PIPE: u8 = 5;
const K_STAGE: u8 = 6;
const KIND_MASK: u8 = 0x07;
const F_NOWAIT: u8 = 0x08;
const F_RLE: u8 = 0x10;
const F_MEM: u8 = 0x20;

/// Append `v` as a LEB128 varint.
pub fn put_u64(out: &mut Vec<u8>, mut v: u64) {
    loop {
        let byte = (v & 0x7f) as u8;
        v >>= 7;
        if v == 0 {
            out.push(byte);
            return;
        }
        out.push(byte | 0x80);
    }
}

/// Read a LEB128 varint at `*at`, advancing it.
pub fn get_u64(buf: &[u8], at: &mut usize) -> Result<u64, String> {
    let mut v = 0u64;
    let mut shift = 0u32;
    loop {
        let &byte = buf.get(*at).ok_or("truncated varint")?;
        *at += 1;
        if shift == 63 && byte > 1 {
            return Err("varint overflows u64".to_string());
        }
        v |= u64::from(byte & 0x7f) << shift;
        if byte & 0x80 == 0 {
            return Ok(v);
        }
        shift += 7;
        if shift > 63 {
            return Err("varint overflows u64".to_string());
        }
    }
}

/// Append `v` as a varint (u32 range).
pub fn put_u32(out: &mut Vec<u8>, v: u32) {
    put_u64(out, v as u64);
}

/// Read a varint and range-check it into u32.
pub fn get_u32(buf: &[u8], at: &mut usize) -> Result<u32, String> {
    u32::try_from(get_u64(buf, at)?).map_err(|_| "varint exceeds u32".to_string())
}

/// Append an `f64` as its exact IEEE-754 bit pattern, little-endian.
pub fn put_f64(out: &mut Vec<u8>, v: f64) {
    out.extend_from_slice(&v.to_bits().to_le_bytes());
}

/// Read an `f64` bit pattern.
pub fn get_f64(buf: &[u8], at: &mut usize) -> Result<f64, String> {
    let bytes: [u8; 8] = buf
        .get(*at..*at + 8)
        .ok_or("truncated f64")?
        .try_into()
        .expect("slice of 8");
    *at += 8;
    Ok(f64::from_bits(u64::from_le_bytes(bytes)))
}

/// Append a length-prefixed UTF-8 string.
pub fn put_str(out: &mut Vec<u8>, s: &str) {
    put_u64(out, s.len() as u64);
    out.extend_from_slice(s.as_bytes());
}

/// Read a length-prefixed UTF-8 string.
pub fn get_str(buf: &[u8], at: &mut usize) -> Result<String, String> {
    let len = usize::try_from(get_u64(buf, at)?).map_err(|_| "string length overflow")?;
    let bytes = buf.get(*at..*at + len).ok_or("truncated string")?;
    *at += len;
    std::str::from_utf8(bytes)
        .map(|s| s.to_string())
        .map_err(|_| "non-UTF-8 string".to_string())
}

fn put_mem(out: &mut Vec<u8>, m: &MemProfile) {
    put_u64(out, m.instructions);
    put_u64(out, m.cycles);
    put_u64(out, m.llc_misses);
    put_u64(out, m.dram_bytes);
    put_f64(out, m.traffic_mbps);
}

fn get_mem(buf: &[u8], at: &mut usize) -> Result<MemProfile, String> {
    Ok(MemProfile {
        instructions: get_u64(buf, at)?,
        cycles: get_u64(buf, at)?,
        llc_misses: get_u64(buf, at)?,
        dram_bytes: get_u64(buf, at)?,
        traffic_mbps: get_f64(buf, at)?,
    })
}

fn put_burden(out: &mut Vec<u8>, b: &BurdenTable) {
    let entries = b.entries();
    put_u64(out, entries.len() as u64);
    for &(threads, factor) in entries {
        put_u32(out, threads);
        put_f64(out, factor);
    }
}

fn get_burden(buf: &[u8], at: &mut usize) -> Result<BurdenTable, String> {
    let n = usize::try_from(get_u64(buf, at)?).map_err(|_| "burden count overflow")?;
    if n > buf.len() {
        return Err("burden count exceeds payload".to_string());
    }
    let mut entries = Vec::with_capacity(n);
    for _ in 0..n {
        let threads = get_u32(buf, at)?;
        let factor = get_f64(buf, at)?;
        entries.push((threads, factor));
    }
    // Entries were persisted from a sanitized table, so `from_entries`
    // (sort + dedup + clamp) is the identity here; going through it
    // keeps the invariant even against hand-crafted payloads.
    Ok(BurdenTable::from_entries(entries))
}

/// Append the binary encoding of `tree` to `out`.
pub fn encode_tree(tree: &ProgramTree, out: &mut Vec<u8>) {
    put_u64(out, tree.len() as u64);
    for id in tree.ids() {
        let node = tree.node(id);
        let mut tag = match &node.kind {
            NodeKind::Root => K_ROOT,
            NodeKind::Sec { .. } => K_SEC,
            NodeKind::Task { .. } => K_TASK,
            NodeKind::U => K_U,
            NodeKind::L { .. } => K_L,
            NodeKind::Pipe { .. } => K_PIPE,
            NodeKind::Stage { .. } => K_STAGE,
        };
        if let NodeKind::Sec { nowait: true, .. } = &node.kind {
            tag |= F_NOWAIT;
        }
        if let NodeKind::Sec { mem: Some(_), .. } | NodeKind::Pipe { mem: Some(_), .. } = &node.kind
        {
            tag |= F_MEM;
        }
        if matches!(node.children, ChildList::Rle(_)) {
            tag |= F_RLE;
        }
        out.push(tag);
        put_u64(out, node.length);
        match &node.kind {
            NodeKind::Root | NodeKind::U => {}
            NodeKind::Sec {
                name, mem, burden, ..
            }
            | NodeKind::Pipe { name, mem, burden } => {
                put_str(out, name);
                if let Some(m) = mem {
                    put_mem(out, m);
                }
                put_burden(out, burden);
            }
            NodeKind::Task { name } => put_str(out, name),
            NodeKind::L { lock } => put_u32(out, *lock),
            NodeKind::Stage { stage } => put_u32(out, *stage),
        }
        match &node.children {
            ChildList::Plain(v) => {
                put_u64(out, v.len() as u64);
                for &c in v {
                    put_u32(out, c);
                }
            }
            ChildList::Rle(runs) => {
                put_u64(out, runs.len() as u64);
                for r in runs {
                    put_u32(out, r.node);
                    put_u32(out, r.count);
                    put_u64(out, r.total_length);
                }
            }
        }
    }
}

/// Decode a tree encoded by [`encode_tree`] at `*at`, advancing it.
pub fn decode_tree(buf: &[u8], at: &mut usize) -> Result<ProgramTree, String> {
    let count = usize::try_from(get_u64(buf, at)?).map_err(|_| "node count overflow")?;
    if count == 0 {
        return Err("empty tree".to_string());
    }
    // A node takes at least 3 bytes (tag, length, child count); anything
    // claiming more nodes than that is corrupt, not merely large.
    if count > buf.len() {
        return Err("node count exceeds payload".to_string());
    }
    let mut nodes = Vec::with_capacity(count);
    for i in 0..count {
        let &tag = buf.get(*at).ok_or("truncated node tag")?;
        *at += 1;
        let length: Cycles = get_u64(buf, at)?;
        let nowait = tag & F_NOWAIT != 0;
        let has_mem = tag & F_MEM != 0;
        let kind = match tag & KIND_MASK {
            K_ROOT => NodeKind::Root,
            K_SEC => {
                let name = get_str(buf, at)?;
                let mem = if has_mem {
                    Some(get_mem(buf, at)?)
                } else {
                    None
                };
                let burden = get_burden(buf, at)?;
                NodeKind::Sec {
                    name,
                    nowait,
                    mem,
                    burden,
                }
            }
            K_TASK => NodeKind::Task {
                name: get_str(buf, at)?,
            },
            K_U => NodeKind::U,
            K_L => NodeKind::L {
                lock: get_u32(buf, at)?,
            },
            K_PIPE => {
                let name = get_str(buf, at)?;
                let mem = if has_mem {
                    Some(get_mem(buf, at)?)
                } else {
                    None
                };
                let burden = get_burden(buf, at)?;
                NodeKind::Pipe { name, mem, burden }
            }
            K_STAGE => NodeKind::Stage {
                stage: get_u32(buf, at)?,
            },
            k => return Err(format!("unknown node kind {k}")),
        };
        if i == 0 && !matches!(kind, NodeKind::Root) {
            return Err("node 0 is not Root".to_string());
        }
        let n_children = usize::try_from(get_u64(buf, at)?).map_err(|_| "child count overflow")?;
        if n_children > buf.len() {
            return Err("child count exceeds payload".to_string());
        }
        let check = |c: u32| {
            if (c as usize) < count {
                Ok(c)
            } else {
                Err(format!("child id {c} out of range (count {count})"))
            }
        };
        let children = if tag & F_RLE != 0 {
            let mut runs = Vec::with_capacity(n_children);
            for _ in 0..n_children {
                let node: NodeId = check(get_u32(buf, at)?)?;
                let run_count = get_u32(buf, at)?;
                let total_length = get_u64(buf, at)?;
                runs.push(Run {
                    node,
                    count: run_count,
                    total_length,
                });
            }
            ChildList::Rle(runs)
        } else {
            let mut v = Vec::with_capacity(n_children);
            for _ in 0..n_children {
                v.push(check(get_u32(buf, at)?)?);
            }
            ChildList::Plain(v)
        };
        nodes.push(Node {
            kind,
            length,
            children,
        });
    }
    check_acyclic(&nodes)?;
    Ok(ProgramTree::from_nodes(nodes))
}

/// Reject a child graph that contains a cycle: every tree walk recurses
/// through children, so a node reachable from itself would never end.
/// Shared children (a DAG, as the compressor emits) are legal. An
/// iterative three-colour DFS over every node, O(nodes + child entries).
fn check_acyclic(nodes: &[Node]) -> Result<(), String> {
    const WHITE: u8 = 0;
    const GREY: u8 = 1;
    const BLACK: u8 = 2;
    let child = |n: usize, i: usize| match &nodes[n].children {
        ChildList::Plain(v) => v.get(i).map(|&c| c as usize),
        ChildList::Rle(runs) => runs.get(i).map(|r| r.node as usize),
    };
    let mut colour = vec![WHITE; nodes.len()];
    // (node, index of its next child to visit)
    let mut stack: Vec<(usize, usize)> = Vec::new();
    for start in 0..nodes.len() {
        if colour[start] != WHITE {
            continue;
        }
        colour[start] = GREY;
        stack.push((start, 0));
        while let Some(top) = stack.last_mut() {
            let (n, i) = *top;
            let Some(c) = child(n, i) else {
                colour[n] = BLACK;
                stack.pop();
                continue;
            };
            top.1 += 1;
            match colour[c] {
                WHITE => {
                    colour[c] = GREY;
                    stack.push((c, 0));
                }
                GREY => return Err(format!("child {c} of node {n} closes a cycle")),
                _ => {}
            }
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::node::BurdenTable;

    fn sample_tree() -> ProgramTree {
        let nodes = vec![
            Node {
                kind: NodeKind::Root,
                length: 330,
                children: ChildList::Plain(vec![1, 6]),
            },
            Node {
                kind: NodeKind::Sec {
                    name: "sec-α".into(),
                    nowait: true,
                    mem: Some(MemProfile {
                        instructions: 1_000_000,
                        cycles: 2_500_000,
                        llc_misses: 321,
                        dram_bytes: 20_544,
                        traffic_mbps: 1234.5678,
                    }),
                    burden: BurdenTable::from_entries(vec![(2, 1.25), (8, 1.75)]),
                },
                length: 320,
                children: ChildList::Rle(vec![
                    Run {
                        node: 2,
                        count: 3,
                        total_length: 300,
                    },
                    Run {
                        node: 4,
                        count: 2,
                        total_length: 20,
                    },
                ]),
            },
            Node {
                kind: NodeKind::Task { name: "a".into() },
                length: 100,
                children: ChildList::Plain(vec![3]),
            },
            Node::l(7, 100),
            Node {
                kind: NodeKind::Task { name: "b".into() },
                length: 10,
                children: ChildList::Plain(vec![5]),
            },
            Node::u(10),
            Node::u(10),
        ];
        ProgramTree::from_nodes(nodes)
    }

    #[test]
    fn tree_round_trips_exactly() {
        let tree = sample_tree();
        let mut buf = Vec::new();
        encode_tree(&tree, &mut buf);
        let mut at = 0;
        let back = decode_tree(&buf, &mut at).unwrap();
        assert_eq!(at, buf.len(), "decoder consumed the whole encoding");
        assert_eq!(back, tree);
    }

    #[test]
    fn varints_round_trip_at_boundaries() {
        let mut buf = Vec::new();
        let values = [0u64, 1, 127, 128, 16_383, 16_384, u32::MAX as u64, u64::MAX];
        for &v in &values {
            buf.clear();
            put_u64(&mut buf, v);
            let mut at = 0;
            assert_eq!(get_u64(&buf, &mut at).unwrap(), v);
            assert_eq!(at, buf.len());
        }
    }

    #[test]
    fn floats_round_trip_bit_exactly() {
        for v in [0.0f64, -0.0, 1.5, f64::MIN_POSITIVE, 1234.5678e-9, f64::MAX] {
            let mut buf = Vec::new();
            put_f64(&mut buf, v);
            let mut at = 0;
            assert_eq!(get_f64(&buf, &mut at).unwrap().to_bits(), v.to_bits());
        }
    }

    #[test]
    fn truncated_payload_is_an_error_not_a_panic() {
        let tree = sample_tree();
        let mut buf = Vec::new();
        encode_tree(&tree, &mut buf);
        for cut in [0, 1, 5, buf.len() / 2, buf.len() - 1] {
            let mut at = 0;
            assert!(
                decode_tree(&buf[..cut], &mut at).is_err(),
                "cut at {cut} must fail"
            );
        }
    }

    #[test]
    fn bad_child_ids_are_rejected() {
        // Root with one out-of-range plain child.
        let mut buf = Vec::new();
        put_u64(&mut buf, 1); // node count
        buf.push(K_ROOT);
        put_u64(&mut buf, 0); // length
        put_u64(&mut buf, 1); // child count
        put_u32(&mut buf, 7); // out of range
        let mut at = 0;
        assert!(decode_tree(&buf, &mut at).is_err());
    }

    fn decode_nodes(nodes: Vec<Node>) -> Result<ProgramTree, String> {
        let mut buf = Vec::new();
        encode_tree(&ProgramTree::from_nodes(nodes), &mut buf);
        decode_tree(&buf, &mut 0)
    }

    fn task(name: &str, children: Vec<NodeId>) -> Node {
        Node {
            kind: NodeKind::Task { name: name.into() },
            length: 10,
            children: ChildList::Plain(children),
        }
    }

    #[test]
    fn root_listing_itself_is_rejected() {
        let root = Node {
            kind: NodeKind::Root,
            length: 0,
            children: ChildList::Plain(vec![0]),
        };
        let err = decode_nodes(vec![root]).unwrap_err();
        assert!(err.contains("cycle"), "{err}");
    }

    #[test]
    fn two_node_cycle_is_rejected() {
        // Root → 1 → 2 → 1, the back edge hidden in an RLE child list.
        let mut back = task("b", Vec::new());
        back.children = ChildList::Rle(vec![Run {
            node: 1,
            count: 2,
            total_length: 20,
        }]);
        let nodes = vec![
            Node {
                kind: NodeKind::Root,
                length: 0,
                children: ChildList::Plain(vec![1]),
            },
            task("a", vec![2]),
            back,
        ];
        let err = decode_nodes(nodes).unwrap_err();
        assert!(err.contains("cycle"), "{err}");
    }

    #[test]
    fn shared_children_are_not_a_cycle() {
        // Two parents share child 3, and one parent lists it twice.
        let nodes = vec![
            Node {
                kind: NodeKind::Root,
                length: 0,
                children: ChildList::Plain(vec![1, 2]),
            },
            task("a", vec![3, 3]),
            task("b", vec![3]),
            Node::u(10),
        ];
        assert!(decode_nodes(nodes).is_ok());
    }
}
