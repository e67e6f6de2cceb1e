//! Iteration-space dispensers implementing the OpenMP loop schedules.
//!
//! A dispenser hands out `[start, end)` chunks of the task index space.
//! Static schedules precompute each rank's chunks (no shared state);
//! dynamic and guided schedules share a cursor, and the *order in which
//! workers ask* — which the simulation makes deterministic — decides the
//! assignment, exactly as on a real machine.

use machsim::Schedule;

/// A stretch of equal-length chunks the shared cursor hands out next:
/// the following `count ≥ 1` calls to [`Dispenser::next_chunk`] return
/// consecutive chunks of `len` iterations, the first starting at `start`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ChunkRun {
    /// First iteration of the next chunk.
    pub start: usize,
    /// Length of every chunk in the stretch.
    pub len: usize,
    /// Number of chunks in the stretch.
    pub count: usize,
}

/// Chunk dispenser for one parallel region.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Dispenser {
    /// `schedule(static)`: one contiguous block per rank.
    StaticBlock {
        /// Iteration count.
        n: usize,
        /// Team size.
        team: u32,
        /// Whether each rank has taken its block yet.
        taken: Vec<bool>,
    },
    /// `schedule(static,c)`: round-robin chunks of `c`.
    StaticChunk {
        /// Iteration count.
        n: usize,
        /// Chunk size.
        chunk: usize,
        /// Team size.
        team: u32,
        /// Next chunk start per rank.
        next: Vec<usize>,
    },
    /// `schedule(dynamic,c)`: shared cursor.
    Dynamic {
        /// Iteration count.
        n: usize,
        /// Chunk size.
        chunk: usize,
        /// Next unclaimed iteration.
        cursor: usize,
    },
    /// `schedule(guided,min)`: exponentially shrinking chunks.
    Guided {
        /// Iteration count.
        n: usize,
        /// Minimum chunk size.
        min_chunk: usize,
        /// Team size.
        team: u32,
        /// Next unclaimed iteration.
        cursor: usize,
    },
}

impl Dispenser {
    /// Build a dispenser for `n` tasks under `schedule` with `team`
    /// threads.
    pub fn new(schedule: Schedule, n: usize, team: u32) -> Self {
        let team = team.max(1);
        match schedule {
            Schedule::Static { chunk: None } => Dispenser::StaticBlock {
                n,
                team,
                taken: vec![false; team as usize],
            },
            Schedule::Static { chunk: Some(c) } => Dispenser::StaticChunk {
                n,
                chunk: (c as usize).max(1),
                team,
                next: (0..team as usize)
                    .map(|r| r * (c as usize).max(1))
                    .collect(),
            },
            Schedule::Dynamic { chunk } => Dispenser::Dynamic {
                n,
                chunk: (chunk as usize).max(1),
                cursor: 0,
            },
            Schedule::Guided { min_chunk } => Dispenser::Guided {
                n,
                min_chunk: (min_chunk as usize).max(1),
                team,
                cursor: 0,
            },
        }
    }

    /// Next chunk for `rank`, or `None` when the rank's share (static) or
    /// the whole space (dynamic/guided) is exhausted.
    pub fn next_chunk(&mut self, rank: u32) -> Option<(usize, usize)> {
        match self {
            Dispenser::StaticBlock { n, team, taken } => {
                let r = rank as usize;
                if taken[r] {
                    return None;
                }
                taken[r] = true;
                // OpenMP block partition: first n%team ranks get one extra.
                let n_ = *n;
                let t = *team as usize;
                let base = n_ / t;
                let rem = n_ % t;
                let start = r * base + r.min(rem);
                let size = base + usize::from(r < rem);
                if size == 0 {
                    None
                } else {
                    Some((start, start + size))
                }
            }
            Dispenser::StaticChunk {
                n,
                chunk,
                team,
                next,
            } => {
                let r = rank as usize;
                let start = next[r];
                if start >= *n {
                    return None;
                }
                next[r] = start + *chunk * *team as usize;
                Some((start, (start + *chunk).min(*n)))
            }
            Dispenser::Dynamic { n, chunk, cursor } => {
                if *cursor >= *n {
                    return None;
                }
                let start = *cursor;
                *cursor = (*cursor + *chunk).min(*n);
                Some((start, *cursor))
            }
            Dispenser::Guided {
                n,
                min_chunk,
                team,
                cursor,
            } => {
                if *cursor >= *n {
                    return None;
                }
                let size = guided_len(*n - *cursor, *team, *min_chunk);
                let start = *cursor;
                *cursor += size;
                Some((start, start + size))
            }
        }
    }

    /// The stretch of equal-length chunks the shared cursor of a
    /// `dynamic` or `guided` dispenser hands out next, or `None` when the
    /// space is exhausted or the schedule is static (per-rank chunks).
    ///
    /// `dynamic,c` hands out `c`-sized chunks up to a shorter last one.
    /// `guided,m` shrinks its chunks until `remaining / team ≤ m`; from
    /// there on every chunk is `m` long up to a shorter last one. A
    /// guided head chunk is reported as a stretch of one.
    pub fn peek_run(&self) -> Option<ChunkRun> {
        // (space, cursor, next length, the length every chunk has until
        // the shorter last one)
        let (n, cursor, len, full) = match *self {
            Dispenser::Dynamic { n, chunk, cursor } if cursor < n => {
                (n, cursor, chunk.min(n - cursor), chunk)
            }
            Dispenser::Guided {
                n,
                min_chunk,
                team,
                cursor,
            } if cursor < n => (
                n,
                cursor,
                guided_len(n - cursor, team, min_chunk),
                min_chunk,
            ),
            _ => return None,
        };
        Some(ChunkRun {
            start: cursor,
            len,
            count: if len == full { (n - cursor) / len } else { 1 },
        })
    }

    /// Hand out up to `m` chunks to `rank` at once, leaving the dispenser
    /// in the state `m` calls to [`Dispenser::next_chunk`] would. Returns
    /// how many of those calls would have returned a chunk.
    pub fn advance_chunks(&mut self, rank: u32, m: usize) -> usize {
        if m == 0 {
            return 0;
        }
        match self {
            Dispenser::StaticBlock { .. } => usize::from(self.next_chunk(rank).is_some()),
            Dispenser::StaticChunk {
                n,
                chunk,
                team,
                next,
            } => {
                let r = rank as usize;
                let stride = *chunk * *team as usize;
                let left = n.saturating_sub(next[r]).div_ceil(stride);
                let k = left.min(m);
                next[r] += k * stride;
                k
            }
            Dispenser::Dynamic { n, chunk, cursor } => {
                let k = (*n - *cursor).div_ceil(*chunk).min(m);
                *cursor = (*cursor + k * *chunk).min(*n);
                k
            }
            Dispenser::Guided { .. } => {
                let mut k = 0;
                while k < m {
                    let Some(run) = self.peek_run() else { break };
                    let step = run.count.min(m - k);
                    if let Dispenser::Guided { cursor, .. } = self {
                        *cursor += step * run.len;
                    }
                    k += step;
                }
                k
            }
        }
    }
}

/// `guided` chunk length with `remaining ≥ 1` iterations left: the
/// remaining share per thread, at least `min_chunk`, at most what is left.
fn guided_len(remaining: usize, team: u32, min_chunk: usize) -> usize {
    (remaining / team as usize)
        .max(min_chunk)
        .min(remaining)
        .max(1)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Collect every chunk each rank would receive (round-robin polling,
    /// which matches how equal-speed workers interleave).
    fn drain(mut d: Dispenser, team: u32) -> Vec<Vec<(usize, usize)>> {
        let mut out = vec![Vec::new(); team as usize];
        let mut done = vec![false; team as usize];
        while done.iter().any(|&d| !d) {
            for r in 0..team {
                if done[r as usize] {
                    continue;
                }
                match d.next_chunk(r) {
                    Some(c) => out[r as usize].push(c),
                    None => done[r as usize] = true,
                }
            }
        }
        out
    }

    fn covers_exactly(chunks: &[Vec<(usize, usize)>], n: usize) {
        let mut hit = vec![0u32; n];
        for per_rank in chunks {
            for &(s, e) in per_rank {
                assert!(s < e && e <= n, "bad chunk ({s},{e}) of {n}");
                for h in &mut hit[s..e] {
                    *h += 1;
                }
            }
        }
        assert!(
            hit.iter().all(|&h| h == 1),
            "iterations not covered exactly once: {hit:?}"
        );
    }

    #[test]
    fn static_block_partition_matches_openmp() {
        let chunks = drain(Dispenser::new(Schedule::static_block(), 10, 3), 3);
        assert_eq!(chunks[0], vec![(0, 4)]);
        assert_eq!(chunks[1], vec![(4, 7)]);
        assert_eq!(chunks[2], vec![(7, 10)]);
    }

    #[test]
    fn static_block_more_threads_than_work() {
        let chunks = drain(Dispenser::new(Schedule::static_block(), 2, 4), 4);
        covers_exactly(&chunks, 2);
        assert!(chunks[2].is_empty() && chunks[3].is_empty());
    }

    #[test]
    fn static_chunk_round_robins() {
        let chunks = drain(Dispenser::new(Schedule::static1(), 7, 2), 2);
        assert_eq!(chunks[0], vec![(0, 1), (2, 3), (4, 5), (6, 7)]);
        assert_eq!(chunks[1], vec![(1, 2), (3, 4), (5, 6)]);
    }

    #[test]
    fn static_chunk_larger_chunks() {
        let chunks = drain(
            Dispenser::new(Schedule::Static { chunk: Some(3) }, 10, 2),
            2,
        );
        covers_exactly(&chunks, 10);
        assert_eq!(chunks[0][0], (0, 3));
        assert_eq!(chunks[1][0], (3, 6));
    }

    #[test]
    fn dynamic_covers_everything_in_cursor_order() {
        let chunks = drain(Dispenser::new(Schedule::Dynamic { chunk: 2 }, 9, 3), 3);
        covers_exactly(&chunks, 9);
    }

    #[test]
    fn guided_chunks_shrink_and_cover() {
        let chunks = drain(Dispenser::new(Schedule::Guided { min_chunk: 1 }, 100, 4), 4);
        covers_exactly(&chunks, 100);
        // First grab is remaining/team = 25; sizes shrink thereafter.
        let flat: Vec<(usize, usize)> = {
            let mut all: Vec<_> = chunks.iter().flatten().copied().collect();
            all.sort();
            all
        };
        assert_eq!(flat[0], (0, 25));
        let sizes: Vec<usize> = flat.iter().map(|&(s, e)| e - s).collect();
        assert!(
            sizes.windows(2).all(|w| w[1] <= w[0]),
            "sizes not shrinking: {sizes:?}"
        );
    }

    #[test]
    fn empty_space_yields_nothing() {
        for sched in [
            Schedule::static_block(),
            Schedule::static1(),
            Schedule::dynamic1(),
            Schedule::Guided { min_chunk: 2 },
        ] {
            let mut d = Dispenser::new(sched, 0, 4);
            for r in 0..4 {
                assert_eq!(d.next_chunk(r), None);
            }
        }
    }

    fn all_schedules() -> Vec<Schedule> {
        vec![
            Schedule::static_block(),
            Schedule::static1(),
            Schedule::Static { chunk: Some(3) },
            Schedule::dynamic1(),
            Schedule::Dynamic { chunk: 3 },
            Schedule::Guided { min_chunk: 1 },
            Schedule::Guided { min_chunk: 4 },
        ]
    }

    #[test]
    fn advance_chunks_matches_repeated_next_chunk() {
        for sched in all_schedules() {
            for n in [0usize, 1, 7, 10, 64, 101] {
                for team in [1u32, 3, 4] {
                    for m in [0usize, 1, 2, 5, 40, 200] {
                        for rank in 0..team {
                            let mut one = Dispenser::new(sched, n, team);
                            let mut batch = one.clone();
                            // Start mid-space, as the emulator does.
                            one.next_chunk((rank + 1) % team);
                            batch.next_chunk((rank + 1) % team);
                            let handed = (0..m).filter(|_| one.next_chunk(rank).is_some()).count();
                            let ctx = format!("{sched:?} n={n} team={team} m={m} rank={rank}");
                            assert_eq!(batch.advance_chunks(rank, m), handed, "{ctx}");
                            assert_eq!(batch, one, "{ctx}");
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn peek_run_predicts_next_chunks() {
        for sched in all_schedules() {
            for n in [0usize, 1, 7, 10, 64, 101] {
                for team in [1u32, 3, 4] {
                    let mut d = Dispenser::new(sched, n, team);
                    let shared = !matches!(sched, Schedule::Static { .. });
                    while let Some(run) = d.peek_run() {
                        assert!(shared && run.count >= 1, "{sched:?}");
                        let mut start = run.start;
                        for _ in 0..run.count {
                            assert_eq!(d.next_chunk(0), Some((start, start + run.len)));
                            start += run.len;
                        }
                    }
                    if shared {
                        assert_eq!(d.next_chunk(0), None, "{sched:?} n={n}");
                    }
                }
            }
        }
    }
}
