//! One RPCA validator as a sans-IO state machine.
//!
//! [`ValidatorCore`] is the validator both transports run:
//! [`RoundEngine`](crate::RoundEngine) drives n of them, handing each the
//! messages that land by each deadline; `ripple-node` drives one over TCP on
//! the wall clock. It has no
//! clock, socket or RNG: its driver calls it when a round opens, a message
//! arrives or an iteration's deadline passes, and sends what it returns —
//! the per-process handlers Chase–MacBrough and Amores-Sesar et al. specify
//! RPCA as. So one struct decides which proposals count, which transactions
//! a deadline drops, and when this validator sees a quorum.
//!
//! A round opens with its *candidate table* (ids, ascending) and the
//! validator's position as indices into it (see [`crate::rounds`]). The
//! simulator hands every core the complete table, so its proposals are
//! index slices. A wire proposal carries ids: one the table lacks is
//! appended, so the table may grow out of id order, and [`ValidatorCore::ids`]
//! sorts what it emits.
//!
//! A message is filed only for the open round or the next (a peer's clock
//! may run ahead), for one of RPCA's iterations, from another validator on
//! this one's UNL, and once per sender and slot: the first filed wins.
//! Anything else is [`Refused`] and leaves no state behind.

use std::collections::{BTreeSet, HashMap};
use std::sync::Arc;

use ripple_crypto::Digest256;

use crate::rounds::{
    hash_page, support_required, tally_validations, ValidationTally, QUORUM_PCT, RPCA_THRESHOLDS,
};

/// Proposal iterations per round.
const ITERATIONS: usize = RPCA_THRESHOLDS.len();

/// Why a [`ValidatorCore`] refused a message.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[non_exhaustive]
pub enum Refused {
    /// The sender is out of range, or this validator itself.
    Sender,
    /// The sender is not on this validator's UNL.
    Untrusted,
    /// The iteration is past RPCA's last.
    Iteration,
    /// The round is before the open one.
    Stale,
    /// The round is past the next one (or is the next, for an index
    /// position, which only the open round's table can read).
    Ahead,
    /// The sender's slot is filed already.
    Duplicate,
    /// Interning the ids would take the table past `u32` indices.
    TableFull,
}

/// One RPCA validator: its UNL, its position in the open round, and the
/// proposals and validations filed for that round and the next.
#[derive(Debug)]
pub struct ValidatorCore {
    id: usize,
    /// `trusts[from]`: whether `from` is on this validator's UNL.
    trusts: Vec<bool>,
    /// The UNL's size, this validator included.
    unl_len: usize,
    round: Option<u64>,
    /// The candidate table as the driver handed it in, then the ids wire
    /// proposals brought in, in arrival order.
    table: Arc<[u64]>,
    grown: Vec<u64>,
    /// Id → index, built by the round's first wire proposal.
    lookup: HashMap<u64, u32>,
    max_ids: usize,
    position: Arc<[u32]>,
    /// `heard[iteration * n + from]`, `pages[from]`: the open round's filed
    /// proposals and validations, this validator's own page included.
    heard: Vec<Option<Arc<[u32]>>>,
    pages: Vec<Option<Digest256>>,
    /// The same for the next round, whose table is not known yet.
    early: Vec<Option<Vec<u64>>>,
    early_pages: Vec<Option<Digest256>>,
}

impl ValidatorCore {
    /// Validator `id` of `0..n`, counting those on `unl`. `None` unless
    /// `unl` names `id` and only validators in `0..n`.
    pub fn new(id: usize, unl: &BTreeSet<usize>, n: usize) -> Option<ValidatorCore> {
        if !unl.contains(&id) || unl.last() >= Some(&n) {
            return None;
        }
        Some(ValidatorCore {
            id,
            trusts: (0..n).map(|v| unl.contains(&v)).collect(),
            unl_len: unl.len(),
            round: None,
            table: Arc::from([]),
            grown: Vec::new(),
            lookup: HashMap::new(),
            max_ids: u32::MAX as usize,
            position: Arc::from([]),
            heard: vec![None; ITERATIONS * n],
            pages: vec![None; n],
            early: vec![None; ITERATIONS * n],
            early_pages: vec![None; n],
        })
    }

    /// Opens `round` with its candidate table — ascending, no duplicates —
    /// and this validator's position in it. What was filed early for `round`
    /// is taken in; anything else filed is dropped.
    pub fn open_round(&mut self, round: u64, table: Arc<[u64]>, position: Arc<[u32]>) {
        let next = self.is_next(round);
        self.round = Some(round);
        self.table = table;
        self.grown.clear();
        self.lookup.clear();
        self.position = position;
        self.heard.fill(None);
        std::mem::swap(&mut self.pages, &mut self.early_pages);
        self.early_pages.fill(None);
        if !next {
            self.pages.fill(None);
        }
        for slot in 0..self.early.len() {
            if let Some(ids) = self.early[slot].take().filter(|_| next) {
                let _ = self.file_ids(slot, ids.into_iter()); // refused if full
            }
        }
    }

    /// Files `from`'s proposal for `iteration` of the open round, as indices
    /// into its table, or says why it is [`Refused`].
    pub fn on_proposal(
        &mut self,
        from: usize,
        round: u64,
        iteration: usize,
        position: Arc<[u32]>,
    ) -> Result<(), Refused> {
        match self.admit(from, round, iteration)? {
            (true, slot) => file(&mut self.heard[slot], position),
            (false, _) => Err(Refused::Ahead),
        }
    }

    /// Files `from`'s proposal for `iteration` of the open round or the
    /// next, as the ids the wire carries, or says why it is [`Refused`].
    pub fn on_wire_proposal(
        &mut self,
        from: usize,
        round: u64,
        iteration: usize,
        ids: &BTreeSet<u64>,
    ) -> Result<(), Refused> {
        let ids = ids.iter().copied();
        match self.admit(from, round, iteration)? {
            (true, slot) if self.heard[slot].is_some() => Err(Refused::Duplicate),
            (true, slot) => self.file_ids(slot, ids),
            (false, slot) => file(&mut self.early[slot], ids.collect()),
        }
    }

    /// Files `from`'s validation of `round`'s page, for the open round or
    /// the next, or says why it is [`Refused`].
    pub fn on_validation(
        &mut self,
        from: usize,
        round: u64,
        page: Digest256,
    ) -> Result<(), Refused> {
        match self.admit(from, round, 0)? {
            (true, slot) => file(&mut self.pages[slot], page),
            (false, slot) => file(&mut self.early_pages[slot], page),
        }
    }

    /// `iteration`'s deadline has passed: keeps each candidate that its
    /// threshold of the UNL holds, counting this validator's position and the
    /// proposals filed for the iteration, and returns the new position to
    /// broadcast. `support` is scratch of any length, handed back zeroed. An
    /// iteration past RPCA's last changes nothing.
    pub fn deadline(&mut self, iteration: usize, support: &mut Vec<u32>) -> Arc<[u32]> {
        if let Some(&pct) = RPCA_THRESHOLDS.get(iteration) {
            let n = self.trusts.len();
            support.resize(self.table.len() + self.grown.len(), 0);
            let heard = self.heard[iteration * n..(iteration + 1) * n]
                .iter()
                .flatten();
            let kept = tally_support(
                support,
                std::iter::once(&self.position).chain(heard).map(|p| &p[..]),
                support_required(self.unl_len, pct),
            );
            self.position = kept.into();
        }
        Arc::clone(&self.position)
    }

    /// Seals the position into the open round's page, filed as this
    /// validator's own validation.
    pub fn seal(&mut self) -> Digest256 {
        let page = hash_page(self.ids().into_iter());
        self.pages[self.id] = Some(page);
        page
    }

    /// Closes the open round: the page this validator sealed, and its tally
    /// of the validations filed. `None` if it did not seal, or closed already.
    pub fn close(&mut self) -> Option<(Digest256, ValidationTally)> {
        let own = self.pages[self.id]?;
        let tally = tally_validations(self.pages.iter().flatten().copied(), self.unl_len);
        self.pages.fill(None);
        Some((own, tally))
    }

    /// The open round, if any.
    pub fn round(&self) -> Option<u64> {
        self.round
    }

    /// The position, as indices into the open round's table.
    pub fn position(&self) -> &Arc<[u32]> {
        &self.position
    }

    /// The position as transaction ids, ascending.
    pub fn ids(&self) -> Vec<u64> {
        let at = |ix: u32| match self.table.get(ix as usize) {
            Some(&id) => id,
            None => self.grown[ix as usize - self.table.len()],
        };
        let mut ids: Vec<u64> = self.position.iter().map(|&ix| at(ix)).collect();
        if !self.grown.is_empty() {
            ids.sort_unstable();
        }
        ids
    }

    /// How many validations of `round`, the open one or the next, are filed.
    pub fn validated(&self, round: u64) -> usize {
        let pages = match self.round == Some(round) {
            true => &self.pages,
            false if self.is_next(round) => &self.early_pages,
            false => return 0,
        };
        pages.iter().flatten().count()
    }

    /// How many validations of one page commit it in this validator's view.
    pub fn quorum(&self) -> usize {
        support_required(self.unl_len, QUORUM_PCT)
    }

    fn is_next(&self, round: u64) -> bool {
        self.round.and_then(|open| open.checked_add(1)) == Some(round)
    }

    /// Whether a message from `from` about `(round, iteration)` goes to the
    /// open round (rather than the next), and its slot there.
    fn admit(&self, from: usize, round: u64, iteration: usize) -> Result<(bool, usize), Refused> {
        let n = self.trusts.len();
        if from >= n || from == self.id {
            return Err(Refused::Sender);
        }
        if iteration >= ITERATIONS {
            return Err(Refused::Iteration);
        }
        let open = self.round == Some(round);
        if !open && !self.is_next(round) {
            return Err(match self.round {
                Some(open) if round < open => Refused::Stale,
                _ => Refused::Ahead,
            });
        }
        if !self.trusts[from] {
            return Err(Refused::Untrusted);
        }
        Ok((open, iteration * n + from))
    }

    /// Interns `ids` into the open round's table and files them at `slot`.
    fn file_ids(
        &mut self,
        slot: usize,
        ids: impl Iterator<Item = u64> + Clone,
    ) -> Result<(), Refused> {
        if self.lookup.is_empty() {
            self.lookup.extend(self.table.iter().copied().zip(0..));
        }
        let (lookup, grown, base) = (&mut self.lookup, &mut self.grown, self.table.len());
        let fresh = ids.clone().filter(|id| !lookup.contains_key(id)).count();
        if fresh > self.max_ids.saturating_sub(base + grown.len()) {
            return Err(Refused::TableFull);
        }
        // In range: the table holds at most `max_ids` ids.
        let mut index = |id: u64| {
            *lookup.entry(id).or_insert_with(|| {
                grown.push(id);
                (base + grown.len() - 1) as u32
            })
        };
        self.heard[slot] = Some(ids.map(&mut index).collect());
        Ok(())
    }
}

/// Fills an empty slot; the first filed wins.
fn file<T>(slot: &mut Option<T>, item: T) -> Result<(), Refused> {
    match slot {
        Some(_) => Err(Refused::Duplicate),
        None => {
            *slot = Some(item);
            Ok(())
        }
    }
}

/// The RPCA support kernel: counts, in the zeroed `support` (one slot per
/// candidate), how many of `positions` hold each candidate, and returns the
/// candidates held by at least `required` of them, ascending. `support` is
/// zeroed again on return, so one buffer serves a whole round.
pub(crate) fn tally_support<'a>(
    support: &mut [u32],
    positions: impl IntoIterator<Item = &'a [u32]>,
    required: usize,
) -> Vec<u32> {
    for position in positions {
        for &ix in position {
            support[ix as usize] += 1;
        }
    }
    // A candidate nobody holds is not proposed, whatever `required` says.
    let required = required.max(1);
    let kept = support
        .iter()
        .enumerate()
        .filter(|&(_, &held)| held as usize >= required)
        .map(|(ix, _)| ix as u32)
        .collect();
    support.fill(0);
    kept
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rounds::page_hash;
    use ripple_crypto::sha512_half;

    fn everyone(n: usize) -> BTreeSet<usize> {
        (0..n).collect()
    }

    /// Validator 0 of 5, round 7 open with table {10, 20, 30}, holding all
    /// of it.
    fn open_core() -> ValidatorCore {
        let mut core = ValidatorCore::new(0, &everyone(5), 5).expect("valid UNL");
        core.open_round(7, Arc::from([10, 20, 30]), Arc::from([0, 1, 2]));
        core
    }

    fn set<T: Ord + Copy>(items: &[T]) -> BTreeSet<T> {
        items.iter().copied().collect()
    }

    /// Everything a core has filed: refused input must leave it unchanged.
    fn filed(core: &ValidatorCore) -> String {
        format!(
            "{:?} {:?} {:?} {:?} {:?}",
            core.grown, core.heard, core.pages, core.early, core.early_pages
        )
    }

    #[test]
    fn a_unl_must_name_its_owner_and_only_known_validators() {
        assert!(ValidatorCore::new(1, &set(&[0, 2]), 3).is_none());
        assert!(ValidatorCore::new(0, &set(&[0, 3]), 3).is_none());
        assert!(ValidatorCore::new(3, &everyone(3), 3).is_none());
        let core = ValidatorCore::new(1, &set(&[1, 2]), 3).expect("valid");
        assert_eq!(core.quorum(), 2);
        assert_eq!(core.round(), None);
    }

    #[test]
    fn a_sender_outside_the_population_or_itself_is_refused() {
        let mut core = open_core();
        let before = filed(&core);
        let page = page_hash(&set(&[10]));
        for from in [0, 5, 6, usize::MAX] {
            assert_eq!(
                core.on_wire_proposal(from, 7, 0, &set(&[10])),
                Err(Refused::Sender)
            );
            assert_eq!(
                core.on_proposal(from, 7, 0, Arc::from([0])),
                Err(Refused::Sender)
            );
            assert_eq!(core.on_validation(from, 7, page), Err(Refused::Sender));
        }
        assert_eq!(filed(&core), before);
    }

    #[test]
    fn an_iteration_past_the_last_is_refused() {
        let mut core = open_core();
        let before = filed(&core);
        for iteration in [4, 5, usize::MAX] {
            assert_eq!(
                core.on_wire_proposal(1, 7, iteration, &set(&[10])),
                Err(Refused::Iteration)
            );
            assert_eq!(
                core.on_proposal(1, 7, iteration, Arc::from([0])),
                Err(Refused::Iteration)
            );
        }
        assert_eq!(filed(&core), before);
        // A deadline past the last iteration changes nothing either.
        let mut support = Vec::new();
        assert_eq!(&core.deadline(4, &mut support)[..], &[0, 1, 2]);
    }

    #[test]
    fn only_the_open_round_and_the_next_are_filed() {
        let mut core = open_core();
        let before = filed(&core);
        let page = page_hash(&set(&[10]));
        for (round, refusal) in [
            (0, Refused::Stale),
            (6, Refused::Stale),
            (9, Refused::Ahead),
            (u64::MAX, Refused::Ahead),
        ] {
            assert_eq!(
                core.on_wire_proposal(1, round, 0, &set(&[10])),
                Err(refusal)
            );
            assert_eq!(core.on_validation(1, round, page), Err(refusal));
            assert_eq!(core.validated(round), 0);
        }
        // An index position reads only the open round's table.
        assert_eq!(
            core.on_proposal(1, 8, 0, Arc::from([0])),
            Err(Refused::Ahead)
        );
        assert_eq!(filed(&core), before);

        // Nothing is open yet: everything is ahead.
        let mut fresh = ValidatorCore::new(0, &everyone(5), 5).expect("valid UNL");
        assert_eq!(fresh.on_validation(1, 0, page), Err(Refused::Ahead));
        // And at the last round there is no next one to overflow into.
        let mut last = ValidatorCore::new(0, &everyone(5), 5).expect("valid UNL");
        last.open_round(u64::MAX, Arc::from([1]), Arc::from([0]));
        assert_eq!(last.on_validation(1, u64::MAX, page), Ok(()));
        assert_eq!(last.on_validation(2, 0, page), Err(Refused::Stale));
    }

    #[test]
    fn the_first_proposal_or_validation_filed_wins() {
        let mut core = open_core();
        let (first, second) = (page_hash(&set(&[10])), page_hash(&set(&[20])));
        assert_eq!(core.on_wire_proposal(1, 7, 0, &set(&[10, 20])), Ok(()));
        let before = filed(&core);
        assert_eq!(
            core.on_wire_proposal(1, 7, 0, &set(&[30, 40])),
            Err(Refused::Duplicate)
        );
        assert_eq!(
            core.on_proposal(1, 7, 0, Arc::from([2])),
            Err(Refused::Duplicate)
        );
        assert_eq!(filed(&core), before, "no id 40 interned");
        assert_eq!(core.on_validation(1, 7, first), Ok(()));
        assert_eq!(core.on_validation(1, 7, second), Err(Refused::Duplicate));
        // The same holds for the next round's early slots.
        assert_eq!(core.on_wire_proposal(1, 8, 0, &set(&[1])), Ok(()));
        assert_eq!(
            core.on_wire_proposal(1, 8, 0, &set(&[2])),
            Err(Refused::Duplicate)
        );
        assert_eq!(core.on_validation(1, 8, first), Ok(()));
        assert_eq!(core.on_validation(1, 8, second), Err(Refused::Duplicate));
        // Another sender, or another iteration, is another slot.
        assert_eq!(core.on_wire_proposal(2, 7, 0, &set(&[10])), Ok(()));
        assert_eq!(core.on_wire_proposal(1, 7, 1, &set(&[10])), Ok(()));
        // Validator 1's vote stayed on the first page: it and the own page
        // hold one vote each.
        core.seal();
        let (_, tally) = core.close().expect("sealed");
        assert_eq!(tally.count, 1);
    }

    #[test]
    fn an_untrusted_sender_is_refused() {
        let unl = set(&[0, 1, 2]);
        let mut core = ValidatorCore::new(0, &unl, 5).expect("valid UNL");
        core.open_round(0, Arc::from([1]), Arc::from([0]));
        let before = filed(&core);
        assert_eq!(
            core.on_wire_proposal(3, 0, 0, &set(&[1])),
            Err(Refused::Untrusted)
        );
        assert_eq!(
            core.on_validation(4, 0, page_hash(&set(&[1]))),
            Err(Refused::Untrusted)
        );
        assert_eq!(filed(&core), before);
    }

    #[test]
    fn an_ingest_past_the_id_space_is_refused() {
        let mut core = open_core();
        core.max_ids = 5;
        // Two fresh ids fit (3 + 2 = 5); the table is then full.
        assert_eq!(core.on_wire_proposal(1, 7, 0, &set(&[10, 40, 50])), Ok(()));
        let before = filed(&core);
        assert_eq!(
            core.on_wire_proposal(2, 7, 0, &set(&[10, 60])),
            Err(Refused::TableFull)
        );
        assert_eq!(filed(&core), before, "nothing interned, nothing filed");
        // Ids the table already holds still go in.
        assert_eq!(core.on_wire_proposal(2, 7, 0, &set(&[50, 20])), Ok(()));
        // So does an early proposal; one that overflows when its round
        // opens is dropped like one refused on arrival.
        assert_eq!(core.on_wire_proposal(3, 8, 0, &set(&[1, 2, 3])), Ok(()));
        core.open_round(8, Arc::from([7, 8, 9]), Arc::from([0, 1, 2]));
        assert!(core.heard.iter().all(Option::is_none));
    }

    #[test]
    fn early_proposals_and_validations_are_filed_for_their_slot() {
        let mut core = open_core();
        let page = page_hash(&set(&[5, 6]));
        // The next iteration of the open round.
        assert_eq!(core.on_wire_proposal(1, 7, 1, &set(&[10, 20])), Ok(()));
        // The next round, whose table is not known yet.
        for from in 1..5 {
            assert_eq!(core.on_wire_proposal(from, 8, 0, &set(&[5, 6])), Ok(()));
            assert_eq!(core.on_validation(from, 8, page), Ok(()));
        }
        assert_eq!((core.validated(7), core.validated(8)), (0, 4));
        let mut support = Vec::new();
        // Iteration 0 heard nobody: alone, {10, 20, 30} clears no gate.
        assert!(core.deadline(0, &mut support).is_empty());

        core.open_round(8, Arc::from([5, 6, 7]), Arc::from([0, 1, 2]));
        assert_eq!((core.validated(8), core.validated(9)), (4, 0));
        core.deadline(0, &mut support);
        assert_eq!(core.ids(), [5, 6], "four peers carry 5 and 6, none 7");
        assert_eq!(core.seal(), page);
        let (own, tally) = core.close().expect("sealed");
        assert_eq!(own, page);
        assert_eq!(
            (tally.winner, tally.count, tally.committed),
            (Some(page), 5, true)
        );
        assert!(core.close().is_none(), "closed once");
    }

    #[test]
    fn opening_any_round_but_the_next_drops_what_was_filed_early() {
        let mut core = open_core();
        let page = page_hash(&set(&[1]));
        assert_eq!(core.on_wire_proposal(1, 8, 0, &set(&[1])), Ok(()));
        assert_eq!(core.on_validation(1, 8, page), Ok(()));
        core.open_round(9, Arc::from([1]), Arc::from([0]));
        assert_eq!(core.validated(9), 0);
        assert!(core.heard.iter().all(Option::is_none));
    }

    #[test]
    fn a_grown_table_seals_ascending_ids() {
        // The table starts as {50, 60}; peers bring 5 and 70 in arrival
        // order, so index order is no longer id order.
        let mut core = ValidatorCore::new(0, &everyone(3), 3).expect("valid UNL");
        core.open_round(0, Arc::from([50, 60]), Arc::from([0, 1]));
        assert_eq!(core.on_wire_proposal(1, 0, 0, &set(&[5, 50, 70])), Ok(()));
        assert_eq!(core.on_wire_proposal(2, 0, 0, &set(&[5, 60, 70])), Ok(()));
        let mut support = Vec::new();
        // 50% of 3 is 2: every id is held twice.
        core.deadline(0, &mut support);
        assert_eq!(core.ids(), [5, 50, 60, 70]);
        assert_eq!(core.seal(), page_hash(&set(&[5, 50, 60, 70])));
        assert!(support.iter().all(|&held| held == 0));
    }

    #[test]
    fn close_counts_only_filed_validations_against_the_unl() {
        // Four forged votes for one page cannot commit it: ids past the
        // population are refused, so only the real peers count.
        let mut core = open_core();
        let forged = sha512_half(b"forged");
        for from in 5..9 {
            assert_eq!(core.on_validation(from, 7, forged), Err(Refused::Sender));
        }
        assert_eq!(core.on_validation(1, 7, forged), Ok(()));
        let own = core.seal();
        assert_eq!(core.validated(7), 2);
        let (page, tally) = core.close().expect("sealed");
        assert_eq!(page, own);
        assert_eq!(tally.count, 1);
        assert!(!tally.committed);
        assert_eq!(core.quorum(), 4);
    }
}
