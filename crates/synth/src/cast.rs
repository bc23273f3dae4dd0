//! The population: gateways, Market Makers, hubs, users, merchants and the
//! special accounts driving the paper's anomalies.

use rand::rngs::StdRng;
use rand::Rng;

use ripple_crypto::{AccountId, SimKeypair};
use ripple_ledger::{Currency, Drops, LedgerState, RippleTime, Value};
use ripple_store::HistoryEvent;

use crate::config::SynthConfig;
use crate::dist::LogNormal;

/// The role an account plays in the synthetic ecosystem.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Role {
    /// A publicly announced gateway (the Ripple equivalent of a bank).
    Gateway,
    /// A Market Maker placing exchange offers.
    MarketMaker,
    /// One of the two super-hub "common users" (the paper's `rp2PaY…` and
    /// `r42Ccn…`, activated by `~akhavr`).
    Hub,
    /// An ordinary user.
    User,
    /// A merchant (fixed menu prices — the latte).
    Merchant,
    /// The MTL spam campaign's source.
    Attacker,
    /// The `~Ripple Spin` gambling site.
    Gambling,
}

/// One gateway with its public name and home community.
#[derive(Debug, Clone)]
pub struct Gateway {
    /// Ledger account.
    pub account: AccountId,
    /// Public name (the Fig. 7a green labels).
    pub name: String,
    /// Community index.
    pub community: usize,
    /// The currency the gateway principally issues.
    pub home_currency: Currency,
}

/// The full synthetic population and its topology roles.
#[derive(Debug, Clone)]
pub struct Cast {
    /// Gateways, grouped by community in order.
    pub gateways: Vec<Gateway>,
    /// Market Makers (rank 0 is the most active).
    pub market_makers: Vec<AccountId>,
    /// The two super-hubs.
    pub hubs: [AccountId; 2],
    /// Ordinary users with their home community.
    pub users: Vec<(AccountId, usize)>,
    /// Merchant accounts (a subset of destinations with menu prices) and
    /// their community.
    pub merchants: Vec<(AccountId, usize)>,
    /// The MTL attacker.
    pub mtl_attacker: AccountId,
    /// Pool of MTL spam sink accounts (one per burst).
    pub mtl_sinks: Vec<AccountId>,
    /// The six fixed MTL spam chains (8 intermediaries each).
    pub mtl_chains: Vec<Vec<AccountId>>,
    /// The gambling site (`~Ripple Spin`).
    pub spin: AccountId,
    /// `ACCOUNT_ZERO`'s ping-pong partner (the spammer).
    pub zero_spammer: AccountId,
    /// Per-community home currency.
    pub community_currency: Vec<Currency>,
}

/// The 20 publicly announced gateway names from the paper's Figure 7a.
pub const GATEWAY_NAMES: [&str; 20] = [
    "SnapSwap",
    "Ripple Fox",
    "Bitstamp",
    "RippleChina",
    "Ripple Trade Japan",
    "rippleCN",
    "Justcoin",
    "The Rock Trading",
    "TokyoJPY",
    "Dividend Rippler",
    "Ripple Exchange Tokyo",
    "Digital Gate Japan",
    "Payroutes",
    "Mr. Ripple",
    "WisePass",
    "Bitso",
    "DotPayco",
    "Coinex",
    "Ripple LatAm",
    "Ripple Singapore",
];

fn account(seed: &str) -> AccountId {
    AccountId::from_public_key(&SimKeypair::from_seed(seed.as_bytes()).public_key())
}

/// A very large trust limit for infrastructure edges.
fn infra_limit() -> Value {
    Value::from_int(1_000_000_000_000)
}

impl Cast {
    /// Builds the population and wires the topology into `state`, emitting
    /// the corresponding archive events (account creations, trust sets).
    ///
    /// Topology summary:
    ///
    /// * each community has `gateways_per_community` gateways issuing the
    ///   community's home currency;
    /// * users trust their community's gateways (and hold deposits there);
    /// * Market Makers trust *all* gateways in the majors — they are the
    ///   inter-community glue (Table II);
    /// * the two hubs trust the gateways of the first three communities
    ///   (the "hub-covered region" whose traffic survives Market-Maker
    ///   removal);
    /// * gateways mostly extend no trust (Fig. 7b); a small minority trust
    ///   each other, enabling rare gateway-to-gateway routes;
    /// * the MTL chains are 6 fixed sequences of 8 accounts with huge MTL
    ///   trust along each chain (the forced 8-hop spam).
    pub fn build(
        config: &SynthConfig,
        state: &mut LedgerState,
        events: &mut Vec<HistoryEvent>,
        rng: &mut StdRng,
    ) -> Cast {
        let t0 = config.start;
        // Community home currencies follow the paper's fiat ranking: USD,
        // CNY and JPY lead; EUR appears only through the long-tail mix
        // (Fig. 4 ranks it 11th with 0.4% of payments).
        let majors = [
            Currency::USD,
            Currency::CNY,
            Currency::BTC,
            Currency::JPY,
            Currency::EUR,
            Currency::GBP,
            Currency::KRW,
            Currency::AUD,
        ];
        // Communities share home currencies in pairs (c and c+4 both use
        // majors[c % 4]) so that single-currency *cross-community* payments
        // exist — the traffic class whose fate Table II hinges on.
        let community_currency: Vec<Currency> =
            (0..config.communities).map(|c| majors[c % 4]).collect();

        let balance_dist = LogNormal::with_median(500.0, 1.0);
        let create = |state: &mut LedgerState,
                      events: &mut Vec<HistoryEvent>,
                      rng: &mut StdRng,
                      seed: &str|
         -> AccountId {
            let id = account(seed);
            let xrp = balance_dist.sample(rng).clamp(50.0, 1_000_000.0) as u64;
            state.create_account(id, Drops::from_xrp(xrp));
            events.push(HistoryEvent::AccountCreated {
                account: id,
                timestamp: t0,
            });
            id
        };

        // Gateways.
        let mut gateways = Vec::new();
        #[allow(clippy::needless_range_loop)]
        for community in 0..config.communities {
            for _g in 0..config.gateways_per_community {
                let idx = gateways.len();
                let name = GATEWAY_NAMES
                    .get(idx)
                    .map(|s| s.to_string())
                    .unwrap_or_else(|| format!("gateway-{idx}"));
                let id = create(state, events, rng, &format!("gateway:{idx}"));
                gateways.push(Gateway {
                    account: id,
                    name,
                    community,
                    home_currency: community_currency[community],
                });
            }
        }

        // A small minority of gateways extend trust to a peer gateway
        // (Fig. 7b: 3 of 20 gateways declare outgoing trust).
        for idx in [0usize, 5, 9] {
            if idx + 1 < gateways.len() {
                let (a, b) = (gateways[idx].account, gateways[idx + 1].account);
                let cur = gateways[idx].home_currency;
                set_trust(state, events, a, b, cur, infra_limit(), t0);
            }
        }

        // Market Makers: trust every gateway in that gateway's home
        // currency, plus hold XRP. They are the only cross-community
        // connectors outside the hub region.
        let mut market_makers = Vec::new();
        for m in 0..config.market_makers {
            let id = create(state, events, rng, &format!("mm:{m}"));
            for gw in &gateways {
                set_trust(
                    state,
                    events,
                    id,
                    gw.account,
                    gw.home_currency,
                    infra_limit(),
                    t0,
                );
            }
            market_makers.push(id);
        }

        // Hubs: the two hyper-connected common users. They trust the
        // gateways of the hub-covered communities (those with index ≡ 0
        // mod 4, i.e. the USD pair), whose cross-community single-currency
        // traffic can therefore route without Market Makers.
        let hubs = [account("hub:rp2PaY"), account("hub:r42Ccn")];
        for (i, &hub) in hubs.iter().enumerate() {
            let xrp = 100_000 + i as u64;
            state.create_account(hub, Drops::from_xrp(xrp));
            events.push(HistoryEvent::AccountCreated {
                account: hub,
                timestamp: t0,
            });
            for gw in gateways.iter().filter(|g| g.community % 4 == 0) {
                set_trust(
                    state,
                    events,
                    hub,
                    gw.account,
                    gw.home_currency,
                    infra_limit(),
                    t0,
                );
            }
        }

        // Users and merchants.
        let user_trust = LogNormal::with_median(5_000.0, 1.2);
        let mut users = Vec::new();
        for u in 0..config.users {
            let id = create(state, events, rng, &format!("user:{u}"));
            let community = rng.gen_range(0..config.communities);
            let cur = community_currency[community];
            // Trust 2 of the community's gateways in its home currency.
            let base = community * config.gateways_per_community;
            for k in 0..2usize.min(config.gateways_per_community) {
                let gw = &gateways[base + k];
                let limit = Value::from_f64(user_trust.sample(rng).clamp(100.0, 1e7));
                set_trust(state, events, id, gw.account, cur, limit, t0);
            }
            users.push((id, community));
        }
        let mut merchants = Vec::new();
        for m in 0..config.merchants {
            let id = create(state, events, rng, &format!("merchant:{m}"));
            let community = rng.gen_range(0..config.communities);
            let cur = community_currency[community];
            let base = community * config.gateways_per_community;
            for k in 0..2usize.min(config.gateways_per_community) {
                let gw = &gateways[base + k];
                set_trust(state, events, id, gw.account, cur, infra_limit(), t0);
            }
            merchants.push((id, community));
        }

        // MTL spam infrastructure: attacker + 6 chains of 8 accounts with
        // colossal MTL trust along each chain. The two hubs open chains 0
        // and 1 — boosting their Fig. 7a hop counts exactly as the paper
        // observes for `rp2PaY…`/`r42Ccn…`.
        let mtl_attacker = create(state, events, rng, "mtl:attacker");
        let mtl_sink = create(state, events, rng, "mtl:sink");
        // A pool of spam sinks: the attacker cycles destinations, which
        // spreads the campaign's (amount, currency, destination)
        // fingerprints while keeping each burst on one destination.
        let mut mtl_sinks = vec![mtl_sink];
        for i in 0..300 {
            mtl_sinks.push(create(state, events, rng, &format!("mtl:sink:{i}")));
        }
        let mut mtl_chains = Vec::new();
        for chain_idx in 0..6 {
            let mut chain = Vec::with_capacity(8);
            #[allow(clippy::needless_range_loop)]
            for hop in 0..8 {
                // Both hubs open *every* chain: each MTL payment therefore
                // crosses them six times, which is what pushes `rp2PaY…`
                // and `r42Ccn…` an order of magnitude above every other
                // intermediary in Fig. 7(a).
                let id = if hop < 2 {
                    hubs[hop]
                } else {
                    create(state, events, rng, &format!("mtl:chain{chain_idx}:{hop}"))
                };
                chain.push(id);
            }
            // Wire trust: attacker -> chain[0] -> ... -> chain[7] -> sink.
            let huge = Value::from_int(1_000_000_000_000_000_000);
            set_trust(
                state,
                events,
                chain[0],
                mtl_attacker,
                Currency::MTL,
                huge,
                t0,
            );
            for pair in chain.windows(2) {
                set_trust(state, events, pair[1], pair[0], Currency::MTL, huge, t0);
            }
            set_trust(state, events, mtl_sink, chain[7], Currency::MTL, huge, t0);
            mtl_chains.push(chain);
        }

        // Gambling and ACCOUNT_ZERO spam actors.
        let spin = create(state, events, rng, "special:ripple-spin");
        let zero_spammer = create(state, events, rng, "special:zero-spammer");
        state.create_account(AccountId::ZERO, Drops::from_xrp(1_000_000));
        events.push(HistoryEvent::AccountCreated {
            account: AccountId::ZERO,
            timestamp: t0,
        });

        Cast {
            gateways,
            market_makers,
            hubs,
            users,
            merchants,
            mtl_attacker,
            mtl_sinks,
            mtl_chains,
            spin,
            zero_spammer,
            community_currency,
        }
    }

    /// Whether `community` is hub-covered (its single-currency
    /// cross-community traffic survives Market-Maker removal).
    pub fn in_hub_region(&self, community: usize) -> bool {
        community.is_multiple_of(4)
    }

    /// Another community sharing `community`'s home currency, if any.
    pub fn partner_community(&self, community: usize) -> Option<usize> {
        let cur = self.community_currency[community];
        (0..self.community_currency.len())
            .find(|&c| c != community && self.community_currency[c] == cur)
    }
}

fn set_trust(
    state: &mut LedgerState,
    events: &mut Vec<HistoryEvent>,
    truster: AccountId,
    trustee: AccountId,
    currency: Currency,
    limit: Value,
    timestamp: RippleTime,
) {
    state
        .set_trust(truster, trustee, currency, limit)
        .expect("cast wiring uses existing accounts and IOU currencies");
    events.push(HistoryEvent::TrustSet {
        truster,
        trustee,
        currency,
        limit,
        timestamp,
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    fn build_small() -> (Cast, LedgerState, Vec<HistoryEvent>) {
        let config = SynthConfig::small(100);
        let mut state = LedgerState::new();
        let mut events = Vec::new();
        let mut rng = StdRng::seed_from_u64(1);
        let cast = Cast::build(&config, &mut state, &mut events, &mut rng);
        (cast, state, events)
    }

    #[test]
    fn population_sizes_match_config() {
        let (cast, state, _) = build_small();
        let config = SynthConfig::small(100);
        assert_eq!(
            cast.gateways.len(),
            config.communities * config.gateways_per_community
        );
        assert_eq!(cast.market_makers.len(), config.market_makers);
        assert_eq!(cast.users.len(), config.users);
        assert!(state.account_count() > config.users);
    }

    #[test]
    fn gateway_names_come_from_figure7() {
        let (cast, _, _) = build_small();
        assert_eq!(cast.gateways[0].name, "SnapSwap");
        assert_eq!(cast.gateways[2].name, "Bitstamp");
    }

    #[test]
    fn users_trust_their_community_gateways() {
        let (cast, state, _) = build_small();
        let (user, community) = cast.users[0];
        let cur = cast.community_currency[community];
        let trusted = cast
            .gateways
            .iter()
            .filter(|g| g.community == community)
            .filter(|g| state.trust_limit(user, g.account, cur).is_positive())
            .count();
        assert!(trusted >= 1, "user must trust at least one local gateway");
    }

    #[test]
    fn market_makers_trust_all_gateways() {
        let (cast, state, _) = build_small();
        let mm = cast.market_makers[0];
        for gw in &cast.gateways {
            assert!(
                state
                    .trust_limit(mm, gw.account, gw.home_currency)
                    .is_positive(),
                "MM must trust gateway {}",
                gw.name
            );
        }
    }

    #[test]
    fn gateways_rarely_extend_trust() {
        let (cast, state, _) = build_small();
        let gateway_accounts: std::collections::HashSet<AccountId> =
            cast.gateways.iter().map(|g| g.account).collect();
        let trusting_gateways: std::collections::HashSet<AccountId> = state
            .trust_lines()
            .filter(|l| gateway_accounts.contains(&l.truster))
            .map(|l| l.truster)
            .collect();
        assert!(
            trusting_gateways.len() <= 3,
            "only a minority of gateways extend trust (got {})",
            trusting_gateways.len()
        );
    }

    #[test]
    fn mtl_chains_have_eight_hops_and_capacity() {
        let (cast, state, _) = build_small();
        assert_eq!(cast.mtl_chains.len(), 6);
        for chain in &cast.mtl_chains {
            assert_eq!(chain.len(), 8);
            // Verify first-hop capacity from the attacker.
            assert!(state
                .hop_capacity(cast.mtl_attacker, chain[0], Currency::MTL)
                .is_positive());
            for pair in chain.windows(2) {
                assert!(state
                    .hop_capacity(pair[0], pair[1], Currency::MTL)
                    .is_positive());
            }
        }
        // Both hubs open every chain.
        for chain in &cast.mtl_chains {
            assert_eq!(chain[0], cast.hubs[0]);
            assert_eq!(chain[1], cast.hubs[1]);
        }
    }

    #[test]
    fn events_record_topology() {
        let (_, _, events) = build_small();
        let creations = events
            .iter()
            .filter(|e| matches!(e, HistoryEvent::AccountCreated { .. }))
            .count();
        let trusts = events
            .iter()
            .filter(|e| matches!(e, HistoryEvent::TrustSet { .. }))
            .count();
        assert!(creations > 100);
        assert!(trusts > creations, "topology is trust-dense");
    }

    #[test]
    fn account_zero_exists() {
        let (_, state, _) = build_small();
        assert!(state.account(&AccountId::ZERO).is_some());
    }
}
