//! The countermeasure §V discusses — and why it fails in Ripple.
//!
//! "A possible solution is to create multiple Bitcoin wallets unique to
//! every single transaction […] However, a similar approach is difficult to
//! achieve in Ripple due to its underlying trust backbone — every new
//! wallet would need to create enough new trustlines in order to perform
//! transactions. This makes the bootstrapping very complex and expensive.
//! In addition, each wallet would require to be trusted by the receiver of
//! the payment, decreasing the usability of the system and possibly
//! allowing the different wallets to be linked back together."
//!
//! This module quantifies all three claims:
//!
//! 1. [`split_wallets`] rewrites a history as if every user rotated across
//!    `k` wallets; [`WalletSplitReport`] shows how much of a user's profile
//!    a single de-anonymized observation still exposes.
//! 2. The bootstrapping bill: new trust lines and XRP reserves per wallet.
//! 3. [`link_wallets_by_habit`] re-links the split wallets through shared
//!    rare destinations — the habit structure that defeated the split.
//!
//! # Cost: one derivation per wallet, not per payment
//!
//! A wallet identity costs a SHA-512-half (`wallet_of`) and a history has
//! far fewer senders than payments (hub-heavy, as on the real network), so
//! each call interns the accounts it works on into a private table: dense
//! ids in first-appearance order. [`split_wallets`] keeps one row per
//! sender — its payment count (the rotation slot is that count mod `k`) and
//! its ≤ `k` wallets, each with its own payment count and currency list —
//! and derives a `(sender, slot)` wallet the first time the rotation
//! reaches it; [`ground_truth`] derives `k` wallets per distinct sender.
//! Together that is ≤ 2 × senders × k hashes where a per-payment
//! derivation costs payments × (2 + k). The table lives for one call.
//!
//! [`WalletSplitReport::profile_exposure`] is an `f64` sum, so it is taken
//! in table order: summed in `HashMap` order its low bits change from run
//! to run. [`LinkReport::clusters`] is sorted for the same reason.

use std::collections::HashMap;

use ripple_crypto::{sha512_half, AccountId, FxHashMap};
use ripple_ledger::{Currency, FeeSchedule, PaymentRecord};
use ripple_obs::{span, LazyCounter};
use serde::{Deserialize, Serialize};

use crate::fingerprint::ResolutionSpec;
use crate::ig::{information_gain, IgResult};

// Both depend only on the data, so they sit in the deterministic section
// of the metrics snapshot: derivations ÷ records is the cost claim above
// as a count.
static RECORDS: LazyCounter = LazyCounter::new("deanon.countermeasure.records");
static WALLETS_DERIVED: LazyCounter = LazyCounter::new("deanon.countermeasure.wallets_derived");

/// Cost and privacy outcome of a `k`-wallet split.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct WalletSplitReport {
    /// Wallets per original user.
    pub wallets_per_user: usize,
    /// Strict fingerprint IG before the split.
    pub ig_before: IgResult,
    /// Strict fingerprint IG after: equal to `ig_before` by construction.
    /// A fingerprint has no sender field and the split rewrites only the
    /// sender, so every payment keeps its fingerprint — the split protects
    /// the *profile*, not the payment.
    pub ig_after: IgResult,
    /// Average fraction of a user's payments exposed by de-anonymizing one
    /// wallet (1.0 without the split, ≈1/k with it).
    pub profile_exposure: f64,
    /// New wallet accounts created.
    pub new_wallets: u64,
    /// New trust lines those wallets must bootstrap (one per currency each
    /// wallet transacts in).
    pub extra_trust_lines: u64,
    /// XRP locked in reserves by the split (base reserve per wallet plus
    /// owner reserve per trust line).
    pub reserve_cost_xrp: u64,
}

/// Derives the `slot`-th wallet identity of `owner`.
fn wallet_of(owner: AccountId, slot: usize) -> AccountId {
    // "wallet:" ‖ owner ‖ slot as a big-endian u32.
    let mut seed = [0u8; 31];
    seed[..7].copy_from_slice(b"wallet:");
    seed[7..27].copy_from_slice(owner.as_bytes());
    seed[27..].copy_from_slice(&(slot as u32).to_be_bytes());
    let digest = sha512_half(&seed);
    let mut bytes = [0u8; 20];
    bytes.copy_from_slice(&digest.as_bytes()[..20]);
    AccountId::from_bytes(bytes)
}

/// Dense ids for the accounts one call works on, in first-appearance
/// order.
#[derive(Default)]
struct Interner {
    ids: FxHashMap<AccountId, usize>,
    accounts: Vec<AccountId>,
}

impl Interner {
    fn intern(&mut self, account: AccountId) -> usize {
        *self.ids.entry(account).or_insert_with(|| {
            self.accounts.push(account);
            self.accounts.len() - 1
        })
    }
}

/// One wallet of a split sender.
struct Wallet {
    id: AccountId,
    payments: u64,
    /// Currencies the wallet pays in; each non-XRP one needs a trust line.
    currencies: Vec<Currency>,
}

/// One original sender's row: the next rotation slot is `payments % k`,
/// and `wallets` holds the slots reached so far, in slot order.
#[derive(Default)]
struct Sender {
    payments: u64,
    wallets: Vec<Wallet>,
}

/// Rewrites a history as if each sender rotated round-robin across `k`
/// wallets, and prices the consequences.
///
/// # Examples
///
/// ```
/// use ripple_deanon::{split_wallets, ResolutionSpec};
/// use ripple_ledger::FeeSchedule;
///
/// let (split, report) = split_wallets(&[], 4, ResolutionSpec::full(), &FeeSchedule::mainnet());
/// assert!(split.is_empty());
/// assert_eq!(report.wallets_per_user, 4);
/// ```
///
/// # Panics
///
/// Panics if `k` is zero.
pub fn split_wallets(
    records: &[PaymentRecord],
    k: usize,
    spec: ResolutionSpec,
    fees: &FeeSchedule,
) -> (Vec<PaymentRecord>, WalletSplitReport) {
    assert!(k > 0, "at least one wallet per user");
    let _span = span("deanon", "split_wallets");
    let ig_before = information_gain(records.iter(), spec);

    let mut owners = Interner::default();
    let mut senders: Vec<Sender> = Vec::new();
    let mut split: Vec<PaymentRecord> = Vec::with_capacity(records.len());
    for record in records {
        let id = owners.intern(record.sender);
        // Ids are dense, so a first appearance is the next row.
        if id == senders.len() {
            senders.push(Sender::default());
        }
        let sender = &mut senders[id];
        let slot = (sender.payments % k as u64) as usize;
        sender.payments += 1;
        if slot == sender.wallets.len() {
            sender.wallets.push(Wallet {
                id: wallet_of(record.sender, slot),
                payments: 0,
                currencies: Vec::new(),
            });
        }
        let wallet = &mut sender.wallets[slot];
        wallet.payments += 1;
        if !wallet.currencies.contains(&record.currency) {
            wallet.currencies.push(record.currency);
        }
        split.push(PaymentRecord {
            sender: wallet.id,
            ..record.clone()
        });
    }

    // Profile exposure: a de-anonymized wallet reveals its own payments;
    // exposure is that share of the true owner's total. Summed in table
    // order, so the `f64` repeats bit for bit.
    let mut exposure_sum = 0.0f64;
    let mut new_wallets = 0u64;
    let mut extra_trust_lines = 0u64;
    for sender in &senders {
        for wallet in &sender.wallets {
            exposure_sum +=
                wallet.payments as f64 / sender.payments as f64 * wallet.payments as f64;
            new_wallets += 1;
            extra_trust_lines += wallet.currencies.iter().filter(|c| !c.is_xrp()).count() as u64;
        }
    }
    let profile_exposure = exposure_sum / records.len().max(1) as f64;

    let reserve_cost_xrp = (new_wallets * fees.base_reserve.as_drops()
        + extra_trust_lines * fees.owner_reserve.as_drops())
        / 1_000_000;
    RECORDS.add(records.len() as u64);
    WALLETS_DERIVED.add(new_wallets);

    let report = WalletSplitReport {
        wallets_per_user: k,
        ig_before,
        // `Fingerprint` has no sender field and the split rewrites nothing
        // but the sender, so every payment keeps its fingerprint class and
        // the strict IG of `split` is `ig_before` (`split_wallets_reference`
        // still recomputes it, as the oracle).
        ig_after: ig_before,
        profile_exposure,
        new_wallets,
        extra_trust_lines,
        reserve_cost_xrp,
    };
    (split, report)
}

/// Result of the habit-linking attack against a wallet split.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct LinkReport {
    /// Wallet clusters found (each a set of wallets believed co-owned):
    /// members sorted, clusters ordered by their first member.
    pub clusters: Vec<Vec<AccountId>>,
    /// Fraction of correctly re-linked wallet pairs among all true pairs.
    pub recall: f64,
    /// Fraction of proposed pairs that are actually co-owned.
    pub precision: f64,
}

/// Unordered pairs among `n` items.
fn pairs(n: usize) -> u64 {
    let n = n as u64;
    n * n.saturating_sub(1) / 2
}

/// Union-find root of `x`, halving the path on the way up.
fn find(parent: &mut [usize], mut x: usize) -> usize {
    while parent[x] != x {
        parent[x] = parent[parent[x]];
        x = parent[x];
    }
    x
}

/// Re-links split wallets through shared *habits*: if two wallets repeat
/// the same rare `(destination, amount)` pair (the user's exact latte at
/// the same bar), they are probably the same person — the linkage §V
/// warns about. `max_popularity` bounds how many distinct wallets may
/// share a habit pair before it stops being evidence (popular menu prices
/// at popular merchants prove nothing).
pub fn link_wallets_by_habit(
    split_records: &[PaymentRecord],
    true_owner: &HashMap<AccountId, AccountId>,
    max_popularity: usize,
) -> LinkReport {
    let _span = span("deanon", "link_wallets_by_habit");
    // (destination, exact amount) -> distinct paying wallets.
    let mut wallets = Interner::default();
    let mut payers: FxHashMap<(AccountId, i128), Vec<usize>> = FxHashMap::default();
    for record in split_records {
        let wallet = wallets.intern(record.sender);
        let entry = payers
            .entry((record.destination, record.amount.raw()))
            .or_default();
        if !entry.contains(&wallet) {
            entry.push(wallet);
        }
    }
    // Union-find over wallets sharing a rare destination.
    let mut parent: Vec<usize> = (0..wallets.accounts.len()).collect();
    for group in payers.values() {
        if group.len() < 2 || group.len() > max_popularity {
            continue;
        }
        for &other in &group[1..] {
            let a = find(&mut parent, group[0]);
            let b = find(&mut parent, other);
            parent[a] = b;
        }
    }
    // Materialize clusters, in an order that does not depend on the maps'.
    let mut by_root: Vec<Vec<AccountId>> = vec![Vec::new(); parent.len()];
    for (id, &wallet) in wallets.accounts.iter().enumerate() {
        by_root[find(&mut parent, id)].push(wallet);
    }
    let mut clusters: Vec<Vec<AccountId>> = by_root.into_iter().filter(|c| c.len() > 1).collect();
    for cluster in &mut clusters {
        cluster.sort_unstable();
    }
    clusters.sort_unstable_by_key(|cluster| cluster[0]);

    // Score proposed pairs against ground truth: a pair is correct when
    // both wallets resolve to the same owner.
    let mut proposed_pairs = 0u64;
    let mut correct_pairs = 0u64;
    for cluster in &clusters {
        proposed_pairs += pairs(cluster.len());
        let mut owners: Vec<Option<&AccountId>> = cluster
            .iter()
            .map(|wallet| true_owner.get(wallet))
            .collect();
        owners.sort_unstable();
        correct_pairs += owners
            .chunk_by(|a, b| a == b)
            .map(|same_owner| pairs(same_owner.len()))
            .sum::<u64>();
    }
    // All true co-owned pairs.
    let mut per_owner: HashMap<AccountId, usize> = HashMap::new();
    for owner in true_owner.values() {
        *per_owner.entry(*owner).or_insert(0) += 1;
    }
    let true_pairs: u64 = per_owner.values().map(|&n| pairs(n)).sum();

    LinkReport {
        clusters,
        recall: if true_pairs == 0 {
            0.0
        } else {
            correct_pairs as f64 / true_pairs as f64
        },
        precision: if proposed_pairs == 0 {
            0.0
        } else {
            correct_pairs as f64 / proposed_pairs as f64
        },
    }
}

/// Builds the wallet → owner ground-truth map for a `k`-split of a
/// history (test/evaluation helper).
pub fn ground_truth(records: &[PaymentRecord], k: usize) -> HashMap<AccountId, AccountId> {
    let _span = span("deanon", "ground_truth");
    let mut owners = Interner::default();
    for record in records {
        owners.intern(record.sender);
    }
    let mut out = HashMap::with_capacity(owners.accounts.len() * k);
    for &owner in &owners.accounts {
        for slot in 0..k {
            out.insert(wallet_of(owner, slot), owner);
        }
    }
    WALLETS_DERIVED.add((owners.accounts.len() * k) as u64);
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use ripple_ledger::{PathSummary, RippleTime, Value};

    fn rec(sender: u8, dest: u8, amount: i64, secs: u64) -> PaymentRecord {
        PaymentRecord {
            tx_hash: sha512_half(&[sender, dest, secs as u8]),
            sender: AccountId::from_bytes([sender; 20]),
            destination: AccountId::from_bytes([dest; 20]),
            currency: Currency::USD,
            issuer: None,
            amount: Value::from_int(amount),
            timestamp: RippleTime::from_seconds(secs),
            ledger_seq: 1,
            paths: PathSummary::direct(),
            cross_currency: false,
            source_currency: None,
        }
    }

    fn history() -> Vec<PaymentRecord> {
        let mut records = Vec::new();
        // Three users, each with a personal merchant habit + noise.
        for user in 1..=3u8 {
            for i in 0..12u64 {
                // Habit: user's own favourite merchant at a fixed price
                // (a rare (destination, amount) pair).
                records.push(rec(user, 100 + user, 7, user as u64 * 10_000 + i * 60));
                // Noise: a shared popular destination with user-specific
                // amounts.
                records.push(rec(
                    user,
                    200,
                    user as i64 * 1_000 + 30 + i as i64,
                    user as u64 * 10_000 + i * 60 + 7,
                ));
            }
            // An identical "menu price" paid repeatedly by everyone:
            // popular pairs must not count as evidence.
            for j in 0..4u64 {
                records.push(rec(user, 200, 50, user as u64 * 10_000 + 900 + j));
            }
        }
        records
    }

    #[test]
    fn wallets_are_deterministic_and_distinct() {
        let owner = AccountId::from_bytes([1; 20]);
        assert_eq!(wallet_of(owner, 0), wallet_of(owner, 0));
        assert_ne!(wallet_of(owner, 0), wallet_of(owner, 1));
        assert_ne!(
            wallet_of(owner, 0),
            wallet_of(AccountId::from_bytes([2; 20]), 0)
        );
    }

    #[test]
    fn split_reduces_profile_exposure_roughly_by_k() {
        let records = history();
        let fees = FeeSchedule::mainnet();
        let (_, r1) = split_wallets(&records, 1, ResolutionSpec::full(), &fees);
        assert!((r1.profile_exposure - 1.0).abs() < 1e-9, "k=1 exposes all");
        let (_, r4) = split_wallets(&records, 4, ResolutionSpec::full(), &fees);
        assert!(
            r4.profile_exposure < 0.35,
            "k=4 fragments profiles: {}",
            r4.profile_exposure
        );
        assert!(r4.profile_exposure > 0.15, "but not below ~1/k");
    }

    #[test]
    fn split_does_not_protect_single_payments() {
        let records = history();
        let fees = FeeSchedule::mainnet();
        let (_, report) = split_wallets(&records, 4, ResolutionSpec::full(), &fees);
        // Strict fingerprint uniqueness is about the payment tuple, which
        // the split does not change.
        assert_eq!(report.ig_before.unique, report.ig_after.unique);
    }

    #[test]
    fn split_costs_scale_with_k() {
        let records = history();
        let fees = FeeSchedule::mainnet();
        let (_, r2) = split_wallets(&records, 2, ResolutionSpec::full(), &fees);
        let (_, r4) = split_wallets(&records, 4, ResolutionSpec::full(), &fees);
        assert!(r4.new_wallets > r2.new_wallets);
        assert!(r4.extra_trust_lines > r2.extra_trust_lines);
        assert!(r4.reserve_cost_xrp > r2.reserve_cost_xrp);
        // 3 users × 4 wallets × 20 XRP base + lines × 5 XRP.
        assert_eq!(r4.new_wallets, 12);
        assert!(r4.reserve_cost_xrp >= 12 * 20);
    }

    #[test]
    fn habits_relink_the_wallets() {
        let records = history();
        let k = 3;
        let (split, _) =
            split_wallets(&records, k, ResolutionSpec::full(), &FeeSchedule::mainnet());
        let truth = ground_truth(&records, k);
        // The bound must admit a user's own k wallets but reject broader
        // crowds.
        let report = link_wallets_by_habit(&split, &truth, k);
        assert!(
            report.recall > 0.5,
            "rare-destination habits re-link most wallets: {}",
            report.recall
        );
        assert!(
            report.precision > 0.9,
            "rare destinations rarely lie: {}",
            report.precision
        );
        assert!(!report.clusters.is_empty());
    }

    #[test]
    fn popular_destinations_are_not_evidence() {
        let records = history();
        let k = 3;
        let (split, _) =
            split_wallets(&records, k, ResolutionSpec::full(), &FeeSchedule::mainnet());
        let truth = ground_truth(&records, k);
        // With the popularity bound disabled (huge threshold), the shared
        // menu price at destination 200 merges unrelated users: precision
        // collapses relative to the bounded heuristic.
        let naive = link_wallets_by_habit(&split, &truth, usize::MAX);
        let careful = link_wallets_by_habit(&split, &truth, k);
        assert!(
            careful.precision > naive.precision,
            "careful {} vs naive {}",
            careful.precision,
            naive.precision
        );
    }

    #[test]
    #[should_panic(expected = "at least one wallet")]
    fn zero_wallets_rejected() {
        let _ = split_wallets(
            &history(),
            0,
            ResolutionSpec::full(),
            &FeeSchedule::mainnet(),
        );
    }

    // ---- the per-record derivation, kept as the oracle ----

    /// `split_wallets` as it was before the sender table: one `wallet_of`
    /// per record, twice, through five account-keyed maps. It still
    /// computes the strict IG of the split, so it is the oracle for
    /// `ig_after`.
    fn split_wallets_reference(
        records: &[PaymentRecord],
        k: usize,
        spec: ResolutionSpec,
        fees: &FeeSchedule,
    ) -> (Vec<PaymentRecord>, WalletSplitReport) {
        let ig_before = information_gain(records.iter(), spec);

        let mut rotation: HashMap<AccountId, usize> = HashMap::new();
        let mut wallet_currencies: HashMap<AccountId, Vec<Currency>> = HashMap::new();
        let mut split: Vec<PaymentRecord> = Vec::with_capacity(records.len());
        for record in records {
            let slot = rotation.entry(record.sender).or_insert(0);
            let wallet = wallet_of(record.sender, *slot);
            *slot = (*slot + 1) % k;
            let currencies = wallet_currencies.entry(wallet).or_default();
            if !currencies.contains(&record.currency) {
                currencies.push(record.currency);
            }
            split.push(PaymentRecord {
                sender: wallet,
                ..record.clone()
            });
        }

        let ig_after = information_gain(split.iter(), spec);

        let mut per_owner: HashMap<AccountId, u64> = HashMap::new();
        for record in records {
            *per_owner.entry(record.sender).or_insert(0) += 1;
        }
        let mut per_wallet: HashMap<AccountId, (AccountId, u64)> = HashMap::new();
        let mut rotation2: HashMap<AccountId, usize> = HashMap::new();
        for record in records {
            let slot = rotation2.entry(record.sender).or_insert(0);
            let wallet = wallet_of(record.sender, *slot);
            *slot = (*slot + 1) % k;
            let entry = per_wallet.entry(wallet).or_insert((record.sender, 0));
            entry.1 += 1;
        }
        let exposure_sum: f64 = per_wallet
            .values()
            .map(|&(owner, count)| count as f64 / per_owner[&owner] as f64 * count as f64)
            .sum();
        let profile_exposure = exposure_sum / records.len().max(1) as f64;

        let new_wallets = per_wallet.len() as u64;
        let extra_trust_lines: u64 = wallet_currencies
            .values()
            .map(|currencies| currencies.iter().filter(|c| !c.is_xrp()).count() as u64)
            .sum();
        let reserve_cost_xrp = (new_wallets * fees.base_reserve.as_drops()
            + extra_trust_lines * fees.owner_reserve.as_drops())
            / 1_000_000;

        let report = WalletSplitReport {
            wallets_per_user: k,
            ig_before,
            ig_after,
            profile_exposure,
            new_wallets,
            extra_trust_lines,
            reserve_cost_xrp,
        };
        (split, report)
    }

    fn ground_truth_reference(
        records: &[PaymentRecord],
        k: usize,
    ) -> HashMap<AccountId, AccountId> {
        let mut out = HashMap::new();
        for record in records {
            for slot in 0..k {
                out.insert(wallet_of(record.sender, slot), record.sender);
            }
        }
        out
    }

    /// `link_wallets_by_habit` as it was: a recursive union-find through a
    /// `HashMap<AccountId, AccountId>`, clusters in map order, every pair
    /// scored by two map lookups.
    fn link_wallets_by_habit_reference(
        split_records: &[PaymentRecord],
        true_owner: &HashMap<AccountId, AccountId>,
        max_popularity: usize,
    ) -> LinkReport {
        let mut payers: HashMap<(AccountId, i128), Vec<AccountId>> = HashMap::new();
        for record in split_records {
            let entry = payers
                .entry((record.destination, record.amount.raw()))
                .or_default();
            if !entry.contains(&record.sender) {
                entry.push(record.sender);
            }
        }
        let mut parent: HashMap<AccountId, AccountId> = HashMap::new();
        fn find(parent: &mut HashMap<AccountId, AccountId>, x: AccountId) -> AccountId {
            let p = *parent.entry(x).or_insert(x);
            if p == x {
                x
            } else {
                let root = find(parent, p);
                parent.insert(x, root);
                root
            }
        }
        for wallets in payers.values() {
            if wallets.len() < 2 || wallets.len() > max_popularity {
                continue;
            }
            let first = wallets[0];
            for &other in &wallets[1..] {
                let a = find(&mut parent, first);
                let b = find(&mut parent, other);
                if a != b {
                    parent.insert(a, b);
                }
            }
        }
        let mut clusters_map: HashMap<AccountId, Vec<AccountId>> = HashMap::new();
        let wallets: Vec<AccountId> = parent.keys().copied().collect();
        for wallet in wallets {
            let root = find(&mut parent, wallet);
            clusters_map.entry(root).or_default().push(wallet);
        }
        let clusters: Vec<Vec<AccountId>> =
            clusters_map.into_values().filter(|c| c.len() > 1).collect();

        let mut proposed_pairs = 0u64;
        let mut correct_pairs = 0u64;
        for cluster in &clusters {
            for i in 0..cluster.len() {
                for j in i + 1..cluster.len() {
                    proposed_pairs += 1;
                    if true_owner.get(&cluster[i]) == true_owner.get(&cluster[j]) {
                        correct_pairs += 1;
                    }
                }
            }
        }
        let mut per_owner: HashMap<AccountId, u64> = HashMap::new();
        for owner in true_owner.values() {
            *per_owner.entry(*owner).or_insert(0) += 1;
        }
        let true_pairs: u64 = per_owner.values().map(|&n| n * (n - 1) / 2).sum();

        LinkReport {
            clusters,
            recall: if true_pairs == 0 {
                0.0
            } else {
                correct_pairs as f64 / true_pairs as f64
            },
            precision: if proposed_pairs == 0 {
                0.0
            } else {
                correct_pairs as f64 / proposed_pairs as f64
            },
        }
    }

    /// Cluster membership, whatever order the clusters came out in.
    fn membership(mut clusters: Vec<Vec<AccountId>>) -> Vec<Vec<AccountId>> {
        for cluster in &mut clusters {
            cluster.sort_unstable();
        }
        clusters.sort_unstable();
        clusters
    }

    /// Runs the split, its ground truth and the linking attack both ways
    /// and compares everything they report.
    fn assert_matches_the_reference(records: &[PaymentRecord], k: usize, max_popularity: usize) {
        let fees = FeeSchedule::mainnet();
        let (split, report) = split_wallets(records, k, ResolutionSpec::full(), &fees);
        let (split_ref, report_ref) =
            split_wallets_reference(records, k, ResolutionSpec::full(), &fees);
        assert_eq!(split, split_ref);
        assert!(
            (report.profile_exposure - report_ref.profile_exposure).abs() < 1e-12,
            "exposure {} vs {}",
            report.profile_exposure,
            report_ref.profile_exposure
        );
        // Every other field is an integer (or built from integers).
        assert_eq!(
            report,
            WalletSplitReport {
                profile_exposure: report.profile_exposure,
                ..report_ref
            }
        );

        let truth = ground_truth(records, k);
        assert_eq!(truth, ground_truth_reference(records, k));

        let link = link_wallets_by_habit(&split, &truth, max_popularity);
        let link_ref = link_wallets_by_habit_reference(&split, &truth, max_popularity);
        assert_eq!(link.recall, link_ref.recall);
        assert_eq!(link.precision, link_ref.precision);
        assert_eq!(link.clusters, membership(link_ref.clusters));
    }

    fn generated_history(payments: usize) -> Vec<PaymentRecord> {
        use ripple_synth::{Generator, SynthConfig};
        Generator::new(SynthConfig {
            seed: 31_337,
            ..SynthConfig::small(payments)
        })
        .run()
        .payments()
        .cloned()
        .collect()
    }

    #[test]
    fn sender_table_matches_the_per_record_reference_on_generated_histories() {
        let records = generated_history(6_000);
        for k in [1, 2, 3, 8] {
            assert_matches_the_reference(&records, k, k);
        }
        // With the popularity bound off the clusters chain across users.
        assert_matches_the_reference(&records, 3, usize::MAX);
    }

    /// The split rewrites senders only: each output record shares its
    /// input's path table (the same hop addresses), not a copy of it.
    #[test]
    fn split_records_share_their_inputs_path_tables() {
        let records = generated_history(2_000);
        assert!(records.iter().any(|r| r.paths.is_multi_hop()));
        let (split, _) =
            split_wallets(&records, 3, ResolutionSpec::full(), &FeeSchedule::mainnet());
        for (before, after) in records.iter().zip(&split) {
            let hops = |r: &PaymentRecord| {
                r.paths
                    .paths()
                    .map(<[AccountId]>::as_ptr)
                    .collect::<Vec<_>>()
            };
            assert_eq!(hops(before), hops(after));
        }
    }

    #[test]
    fn empty_history_matches_the_reference() {
        assert_matches_the_reference(&[], 4, 4);
        assert!(ground_truth(&[], 0).is_empty());
    }

    #[test]
    fn reports_repeat_bit_for_bit_within_a_process() {
        // Each `HashMap::new()` draws fresh hasher keys, so two calls in
        // one process see two map orders: anything summed or listed in map
        // order differs between them.
        let records = generated_history(6_000);
        let run = || {
            let (split, report) =
                split_wallets(&records, 3, ResolutionSpec::full(), &FeeSchedule::mainnet());
            let truth = ground_truth(&records, 3);
            (report, link_wallets_by_habit(&split, &truth, 3))
        };
        let (report_a, link_a) = run();
        let (report_b, link_b) = run();
        assert_eq!(
            report_a.profile_exposure.to_bits(),
            report_b.profile_exposure.to_bits()
        );
        assert_eq!(report_a, report_b);
        assert!(link_a.clusters.len() > 1, "several clusters to order");
        assert_eq!(link_a, link_b);
    }

    mod reference_equivalence {
        use super::*;
        use proptest::prelude::*;

        const CURRENCIES: [Currency; 3] = [Currency::XRP, Currency::USD, Currency::EUR];

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(256))]

            // Senders and destinations share one small account range (a
            // sender is often also a destination), amounts repeat (habits
            // form), a third of the payments are XRP (some wallets need no
            // trust line) and `k` runs past any sender's payment count.
            #[test]
            fn random_histories_match_the_reference(
                payments in proptest::collection::vec((1u8..7, 1u8..9, 1i64..4, 0usize..3), 0..48),
                k in 1usize..12,
                popularity in 1usize..6,
            ) {
                let records: Vec<PaymentRecord> = payments
                    .iter()
                    .enumerate()
                    .map(|(i, &(sender, dest, amount, currency))| PaymentRecord {
                        currency: CURRENCIES[currency],
                        ..rec(sender, dest, amount, i as u64 * 60)
                    })
                    .collect();
                assert_matches_the_reference(&records, k, popularity);
            }

            // `ig_after` is taken to be `ig_before` without a second pass;
            // here it is checked against the IG of the split itself, under
            // every Figure 3 row's spec.
            #[test]
            fn ig_after_is_the_information_gain_of_the_split(
                payments in proptest::collection::vec((1u8..7, 1u8..9, 1i64..4, 0usize..3), 0..48),
                k in 1usize..12,
                row in 0usize..16,
            ) {
                let records: Vec<PaymentRecord> = payments
                    .iter()
                    .enumerate()
                    .map(|(i, &(sender, dest, amount, currency))| PaymentRecord {
                        currency: CURRENCIES[currency],
                        ..rec(sender, dest, amount, i as u64 * 60)
                    })
                    .collect();
                let rows = ResolutionSpec::figure3_rows();
                let spec = rows[row % rows.len()].1;
                let (split, report) = split_wallets(&records, k, spec, &FeeSchedule::mainnet());
                prop_assert_eq!(report.ig_after, information_gain(split.iter(), spec));
            }
        }
    }
}
