//! Real Awari (Oware) boards: exact move generation, combinatorial state
//! indexing, and cycle-safe retrograde analysis.
//!
//! The synthetic game graph in [`crate::awari`] reproduces the paper's
//! *communication pattern* at a calibrated grain; this module builds the
//! *actual game* so the endgame databases the paper computes are real. Rules
//! implemented (the classic sowing game, with two documented
//! simplifications):
//!
//! * 12 pits, six per player; the mover picks a non-empty own pit and sows
//!   its stones counterclockwise, skipping the origin pit on full laps;
//! * if the last stone lands in an opponent pit bringing it to 2 or 3, that
//!   pit is captured, chaining backwards through consecutive opponent pits
//!   holding 2 or 3;
//! * a player with no legal move **loses** (the opponent takes the rest —
//!   i.e. last capture wins); infinite play is a **draw**.
//! * Simplifications: no "grand slam" exception and no feeding obligation —
//!   both replaced by the starvation-loses rule above, which keeps the value
//!   function well defined and is standard for endgame-database studies.
//!
//! Values are win/loss/draw for the player to move. Captures strictly
//! reduce the stones on the board, so the database is built level by level
//! (a level = stone count); *within* a level non-capturing moves form
//! cycles, which the solver handles with the textbook retrograde queue and
//! a draw default at the fixpoint.

/// Pits per player.
pub const PITS_PER_SIDE: usize = 6;
/// Total pits on the board.
pub const TOTAL_PITS: usize = 2 * PITS_PER_SIDE;

/// A board from the mover's perspective: pits `0..6` belong to the player
/// to move, pits `6..12` to the opponent, in sowing (counterclockwise)
/// order.
pub type Board = [u8; TOTAL_PITS];

/// Game-theoretic value for the player to move.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Wld {
    /// The mover can force the last capture.
    Win,
    /// The opponent can force the last capture.
    Loss,
    /// Neither side can force it (play cycles forever).
    Draw,
}

/// Applies the move of sowing pit `pit` (which must be `< 6` and non-empty).
/// Returns the successor board *from the opponent's perspective* and the
/// number of stones captured by the mover.
///
/// # Panics
///
/// Panics if the pit is out of range or empty.
pub fn apply_move(board: &Board, pit: usize) -> (Board, u8) {
    assert!(pit < PITS_PER_SIDE, "must sow an own pit");
    let mut b = *board;
    let stones = b[pit] as usize;
    assert!(stones > 0, "cannot sow an empty pit");
    b[pit] = 0;
    // Sow counterclockwise, skipping the origin pit on full laps.
    let mut at = pit;
    let mut left = stones;
    while left > 0 {
        at = (at + 1) % TOTAL_PITS;
        if at == pit {
            continue;
        }
        b[at] += 1;
        left -= 1;
    }
    // Capture chain: last stone in an opponent pit now holding 2 or 3.
    let mut captured = 0u8;
    let mut j = at;
    while j >= PITS_PER_SIDE && (b[j] == 2 || b[j] == 3) {
        captured += b[j];
        b[j] = 0;
        if j == PITS_PER_SIDE {
            break;
        }
        j -= 1;
    }
    // Rotate to the opponent's perspective.
    let mut next: Board = [0; TOTAL_PITS];
    for (i, v) in b.iter().enumerate() {
        next[(i + PITS_PER_SIDE) % TOTAL_PITS] = *v;
    }
    (next, captured)
}

/// All legal successor boards of `board` with their capture counts.
pub fn successors(board: &Board) -> Vec<(Board, u8)> {
    (0..PITS_PER_SIDE)
        .filter(|&pit| board[pit] > 0)
        .map(|pit| apply_move(board, pit))
        .collect()
}

/// Stones currently on the board.
pub fn stones_on_board(board: &Board) -> u32 {
    board.iter().map(|&v| v as u32).sum()
}

// ---------------------------------------------------------------------
// Combinatorial indexing: levels enumerate every distribution of `s`
// stones over 12 pits (stars and bars), ranked lexicographically.
// ---------------------------------------------------------------------

fn binomial(n: u64, k: u64) -> u64 {
    if k > n {
        return 0;
    }
    let k = k.min(n - k);
    let mut num = 1u64;
    for i in 0..k {
        num = num * (n - i) / (i + 1);
    }
    num
}

/// Number of boards with exactly `stones` stones (one perspective).
pub fn level_size(stones: u32) -> u64 {
    binomial(stones as u64 + TOTAL_PITS as u64 - 1, TOTAL_PITS as u64 - 1)
}

/// Ranks a board within its level (lexicographic over the pit vector).
pub fn board_index(board: &Board) -> u64 {
    let mut remaining = stones_on_board(board);
    let mut index = 0u64;
    for (i, &v) in board.iter().enumerate().take(TOTAL_PITS - 1) {
        let pits_left = (TOTAL_PITS - 1 - i) as u64;
        // Count boards whose pit i holds fewer than v stones.
        for smaller in 0..v {
            let rest = (remaining - smaller as u32) as u64;
            index += binomial(rest + pits_left - 1, pits_left - 1);
        }
        remaining -= v as u32;
    }
    index
}

/// Inverse of [`board_index`]: the `index`-th board with `stones` stones.
///
/// # Panics
///
/// Panics if `index >= level_size(stones)`.
pub fn board_from_index(stones: u32, mut index: u64) -> Board {
    assert!(index < level_size(stones), "board index out of range");
    let mut board: Board = [0; TOTAL_PITS];
    let mut remaining = stones;
    for i in 0..TOTAL_PITS - 1 {
        let pits_left = (TOTAL_PITS - 1 - i) as u64;
        let mut v = 0u8;
        loop {
            let rest = (remaining - v as u32) as u64;
            let count = binomial(rest + pits_left - 1, pits_left - 1);
            if index < count {
                break;
            }
            index -= count;
            v += 1;
        }
        board[i] = v;
        remaining -= v as u32;
    }
    board[TOTAL_PITS - 1] = remaining as u8;
    board
}

// ---------------------------------------------------------------------
// Serial retrograde solver.
// ---------------------------------------------------------------------

/// The solved database for levels `0..=max_stones`: `values[s][i]` is the
/// value of `board_from_index(s, i)` for the player to move.
#[derive(Debug, Clone)]
pub struct Database {
    /// Per-level value tables.
    pub values: Vec<Vec<Wld>>,
}

impl Database {
    /// Looks a board up.
    pub fn value(&self, board: &Board) -> Wld {
        let s = stones_on_board(board) as usize;
        self.values[s][board_index(board) as usize]
    }

    /// `(wins, losses, draws)` per level.
    pub fn level_counts(&self, stones: u32) -> (u64, u64, u64) {
        let mut counts = (0, 0, 0);
        for v in &self.values[stones as usize] {
            match v {
                Wld::Win => counts.0 += 1,
                Wld::Loss => counts.1 += 1,
                Wld::Draw => counts.2 += 1,
            }
        }
        counts
    }
}

/// Builds the database bottom-up with the retrograde queue algorithm
/// (handles within-level cycles; unresolved states default to draw).
pub fn solve(max_stones: u32) -> Database {
    let mut values: Vec<Vec<Wld>> = Vec::new();
    for s in 0..=max_stones {
        let n = level_size(s) as usize;
        values.push(solve_level(s, n, &values));
    }
    Database { values }
}

fn solve_level(stones: u32, n: usize, below: &[Vec<Wld>]) -> Vec<Wld> {
    // Resolution state per board: Some(value) or None (open).
    let mut value: Vec<Option<Wld>> = vec![None; n];
    // For open states: number of unresolved successors and whether a draw
    // successor was seen.
    let mut open_succs: Vec<u32> = vec![0; n];
    let mut saw_draw: Vec<bool> = vec![false; n];
    // Within-level reverse edges: preds[v] = boards u with a move u -> v.
    let mut preds: Vec<Vec<u32>> = vec![Vec::new(); n];
    let mut queue: std::collections::VecDeque<u32> = std::collections::VecDeque::new();

    for i in 0..n {
        let board = board_from_index(stones, i as u64);
        let succs = successors(&board);
        if succs.is_empty() {
            // Starved: the mover loses.
            value[i] = Some(Wld::Loss);
            queue.push_back(i as u32);
            continue;
        }
        let mut unresolved = 0u32;
        let mut win = false;
        let mut all_win = true;
        for (next, captured) in &succs {
            if *captured > 0 {
                // Cross-level: the successor's value is already final.
                let s2 = stones_on_board(next) as usize;
                match below[s2][board_index(next) as usize] {
                    Wld::Loss => win = true,
                    Wld::Draw => {
                        saw_draw[i] = true;
                        all_win = false;
                    }
                    Wld::Win => {}
                }
            } else {
                unresolved += 1;
                all_win = false;
                preds[board_index(next) as usize].push(i as u32);
            }
        }
        if win {
            value[i] = Some(Wld::Win);
            queue.push_back(i as u32);
        } else if all_win && unresolved == 0 {
            value[i] = Some(Wld::Loss);
            queue.push_back(i as u32);
        } else {
            open_succs[i] = unresolved;
        }
    }

    // Propagate within the level.
    while let Some(v) = queue.pop_front() {
        let val = value[v as usize].expect("queued states are resolved");
        for &u in &preds[v as usize] {
            let ui = u as usize;
            if value[ui].is_some() {
                continue;
            }
            match val {
                Wld::Loss => {
                    value[ui] = Some(Wld::Win);
                    queue.push_back(u);
                }
                Wld::Win => {
                    open_succs[ui] -= 1;
                    if open_succs[ui] == 0 && !saw_draw[ui] {
                        value[ui] = Some(Wld::Loss);
                        queue.push_back(u);
                    }
                }
                Wld::Draw => {
                    saw_draw[ui] = true;
                    open_succs[ui] -= 1;
                }
            }
        }
    }

    // The fixpoint's leftovers can cycle forever: draws.
    value.into_iter().map(|v| v.unwrap_or(Wld::Draw)).collect()
}

/// Independent oracle: naive Zermelo sweeps to a fixpoint. Quadratic and
/// slow — used only by tests to validate [`solve`].
pub fn solve_by_sweeps(max_stones: u32) -> Database {
    let mut values: Vec<Vec<Wld>> = Vec::new();
    for s in 0..=max_stones {
        let n = level_size(s) as usize;
        let mut value: Vec<Option<Wld>> = vec![None; n];
        loop {
            let mut changed = false;
            for i in 0..n {
                if value[i].is_some() {
                    continue;
                }
                let board = board_from_index(s, i as u64);
                let succs = successors(&board);
                if succs.is_empty() {
                    value[i] = Some(Wld::Loss);
                    changed = true;
                    continue;
                }
                let mut win = false;
                let mut all_win = true;
                for (next, captured) in &succs {
                    let sv = if *captured > 0 {
                        let s2 = stones_on_board(next) as usize;
                        Some(values[s2][board_index(next) as usize])
                    } else {
                        value[board_index(next) as usize]
                    };
                    match sv {
                        Some(Wld::Loss) => win = true,
                        Some(Wld::Win) => {}
                        Some(Wld::Draw) | None => all_win = false,
                    }
                }
                if win {
                    value[i] = Some(Wld::Win);
                    changed = true;
                } else if all_win {
                    value[i] = Some(Wld::Loss);
                    changed = true;
                }
            }
            if !changed {
                break;
            }
        }
        values.push(value.into_iter().map(|v| v.unwrap_or(Wld::Draw)).collect());
    }
    Database { values }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sowing_mechanics() {
        // Mover's pit 0 holds 3: sow into pits 1,2,3.
        let mut b: Board = [0; TOTAL_PITS];
        b[0] = 3;
        b[7] = 1;
        let (next, captured) = apply_move(&b, 0);
        assert_eq!(captured, 0);
        // After rotation, mover's old pits 1..3 are opponent pits 7..9.
        assert_eq!(next[7], 1);
        assert_eq!(next[8], 1);
        assert_eq!(next[9], 1);
        // The old opponent pit 7 becomes the new mover's pit 1.
        assert_eq!(next[1], 1);
        assert_eq!(next[0], 0);
    }

    #[test]
    fn capture_on_two_or_three() {
        // Pit 5 holds 2: stones land in opponent pits 6 and 7.
        let mut b: Board = [0; TOTAL_PITS];
        b[5] = 2;
        b[6] = 1; // becomes 2 -> would capture if last
        b[7] = 2; // becomes 3 -> last stone here: capture, chain to pit 6
        let (next, captured) = apply_move(&b, 5);
        assert_eq!(captured, 5, "3 from pit 7 plus 2 from pit 6");
        assert_eq!(stones_on_board(&next), 0);
    }

    #[test]
    fn capture_chain_stops_at_non_capturable_pit() {
        let mut b: Board = [0; TOTAL_PITS];
        b[5] = 3;
        b[6] = 4; // becomes 5: not capturable, breaks the chain
        b[7] = 1; // becomes 2
        b[8] = 2; // becomes 3: last stone, captured
        let (_, captured) = apply_move(&b, 5);
        assert_eq!(captured, 3 + 2, "pits 8 and 7 captured, 6 left alone");
    }

    #[test]
    fn long_sow_skips_origin() {
        let mut b: Board = [0; TOTAL_PITS];
        b[0] = 13; // a full lap (11 other pits) plus 2
        let (next, _) = apply_move(&b, 0);
        // Origin pit must have been skipped: it received no stone.
        // Origin (mover pit 0) is pit 6 after rotation.
        assert_eq!(next[6], 0);
        // Pits 1 and 2 (now 7 and 8) got two stones, everyone else one...
        assert_eq!(stones_on_board(&next), 13);
        assert_eq!(next[7], 2);
        assert_eq!(next[8], 2);
    }

    #[test]
    fn index_roundtrip_all_small_levels() {
        for s in 0..=4u32 {
            let n = level_size(s);
            for i in 0..n {
                let b = board_from_index(s, i);
                assert_eq!(stones_on_board(&b), s);
                assert_eq!(board_index(&b), i, "roundtrip at level {s}");
            }
        }
    }

    #[test]
    fn level_sizes_are_stars_and_bars() {
        assert_eq!(level_size(0), 1);
        assert_eq!(level_size(1), 12);
        assert_eq!(level_size(2), 78);
        assert_eq!(level_size(3), 364);
        assert_eq!(level_size(4), 1365);
    }

    #[test]
    fn empty_board_is_a_loss_for_the_mover() {
        let db = solve(0);
        assert_eq!(db.values[0][0], Wld::Loss, "no move = starved = loss");
    }

    #[test]
    fn one_stone_positions() {
        let db = solve(1);
        for i in 0..level_size(1) {
            let b = board_from_index(1, i);
            let v = db.value(&b);
            if b[PITS_PER_SIDE..].iter().any(|&x| x > 0) {
                // The stone is on the opponent side: mover is starved.
                assert_eq!(v, Wld::Loss, "board {b:?}");
            } else {
                // The mover can always sow its lone stone; eventually
                // someone captures or is starved. Value must be decided.
                assert_ne!(v, Wld::Draw, "board {b:?}");
            }
        }
    }

    #[test]
    fn solver_matches_sweep_oracle_up_to_four_stones() {
        let fast = solve(4);
        let slow = solve_by_sweeps(4);
        for s in 0..=4usize {
            assert_eq!(fast.values[s], slow.values[s], "level {s}");
        }
    }

    #[test]
    fn database_statistics_are_deterministic() {
        let a = solve(3);
        let b = solve(3);
        for s in 0..=3 {
            assert_eq!(a.level_counts(s), b.level_counts(s));
        }
        // And non-trivial: level 3 contains all three outcomes... at least
        // wins and losses.
        let (w, l, _) = a.level_counts(3);
        assert!(w > 0 && l > 0);
    }

    #[test]
    fn capture_moves_reduce_the_level() {
        for s in 1..=3u32 {
            for i in 0..level_size(s) {
                let b = board_from_index(s, i);
                for (next, captured) in successors(&b) {
                    let s2 = stones_on_board(&next);
                    if captured > 0 {
                        assert_eq!(s2 + captured as u32, s);
                    } else {
                        assert_eq!(s2, s, "non-capturing moves stay in level");
                    }
                }
            }
        }
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(128))]

        /// Random boards roundtrip through the combinatorial index.
        #[test]
        fn index_roundtrip_random(pits in prop::collection::vec(0u8..4, TOTAL_PITS)) {
            let mut board: Board = [0; TOTAL_PITS];
            board.copy_from_slice(&pits);
            let s = stones_on_board(&board);
            let idx = board_index(&board);
            prop_assert!(idx < level_size(s));
            prop_assert_eq!(board_from_index(s, idx), board);
        }

        /// Moves conserve stones: board + captured is invariant.
        #[test]
        fn moves_conserve_stones(pits in prop::collection::vec(0u8..5, TOTAL_PITS)) {
            let mut board: Board = [0; TOTAL_PITS];
            board.copy_from_slice(&pits);
            let total = stones_on_board(&board);
            for (next, captured) in successors(&board) {
                prop_assert_eq!(stones_on_board(&next) + captured as u32, total);
                // Captures only ever take 2 or 3 per pit, chained.
                prop_assert!(captured as u32 <= total);
            }
        }

        /// The mover's own pits never get captured.
        #[test]
        fn captures_only_hit_opponent_pits(pits in prop::collection::vec(0u8..5, TOTAL_PITS)) {
            let mut board: Board = [0; TOTAL_PITS];
            board.copy_from_slice(&pits);
            let own_before: u32 = board[..PITS_PER_SIDE].iter().map(|&v| v as u32).sum();
            for pit in 0..PITS_PER_SIDE {
                if board[pit] == 0 {
                    continue;
                }
                let (next, _) = apply_move(&board, pit);
                // After rotation the mover's old side is pits 6..12; it can
                // only have gained stones (sown) relative to before minus
                // what was sown out of the chosen pit.
                let own_after: u32 =
                    next[PITS_PER_SIDE..].iter().map(|&v| v as u32).sum();
                prop_assert!(own_after + board[pit] as u32 >= own_before);
            }
        }
    }
}
