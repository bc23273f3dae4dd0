//! The paper's headline scenario, end to end.
//!
//! Bob buys a latte at a bar that accepts Ripple. Alice, queueing behind
//! him, overhears only: the bar's address, roughly the price, the currency,
//! and the time. This example shows her turning that into Bob's account and
//! his entire financial life (§V).
//!
//! ```text
//! cargo run --release --example latte_attack
//! ```

use ripple_core::deanon::{DeanonIndex, Observation, ResolutionSpec};
use ripple_core::ledger::{Currency, PathSummary, PaymentRecord, RippleTime};
use ripple_core::{crypto, AccountId, Study, SynthConfig};

fn main() {
    // A public history with 20k payments (the real study had 23M; scale
    // does not change the mechanics). `RIPPLE_SMOKE=1` shrinks it to 3k so
    // CI can run the example in seconds.
    let payments = if std::env::var_os("RIPPLE_SMOKE").is_some() {
        3_000
    } else {
        20_000
    };
    println!("generating the public ledger history...");
    let mut study_config = SynthConfig::small(payments);
    study_config.seed = 4_501;
    let study = Study::generate(study_config);

    // Bob and his habits: a latte at the same bar most mornings.
    let bob_keys = crypto::SimKeypair::from_seed(b"bob-the-latte-guy");
    let bob = AccountId::from_public_key(&bob_keys.public_key());
    let bar =
        AccountId::from_public_key(&crypto::SimKeypair::from_seed(b"the-corner-bar").public_key());
    let latte_moment = RippleTime::from_ymd_hms(2015, 8, 24, 8, 3, 20);

    let mut records: Vec<PaymentRecord> = study.payments().into_iter().cloned().collect();
    let mut bob_payment = |amount: &str, t: RippleTime, dest: AccountId, cur: Currency| {
        records.push(PaymentRecord {
            tx_hash: crypto::sha512_half(format!("bob:{t}:{amount}").as_bytes()),
            sender: bob,
            destination: dest,
            currency: cur,
            issuer: None,
            amount: amount.parse().unwrap(),
            timestamp: t,
            ledger_seq: 0,
            paths: PathSummary::direct(),
            cross_currency: false,
            source_currency: None,
        });
    };
    // Bob's financial life: lattes, rent, a BTC buy.
    bob_payment("4.5", latte_moment, bar, Currency::USD);
    bob_payment(
        "4.5",
        RippleTime::from_ymd_hms(2015, 8, 21, 8, 1, 5),
        bar,
        Currency::USD,
    );
    bob_payment(
        "850",
        RippleTime::from_ymd_hms(2015, 8, 1, 9, 0, 0),
        AccountId::from_bytes([77; 20]),
        Currency::USD,
    );
    bob_payment(
        "0.35",
        RippleTime::from_ymd_hms(2015, 8, 14, 20, 15, 9),
        AccountId::from_bytes([78; 20]),
        Currency::BTC,
    );

    // Alice builds the index from PUBLIC data only.
    println!("indexing {} public payments...", records.len());
    let index = DeanonIndex::build(records.iter(), ResolutionSpec::full());

    // What Alice overheard. Note the amount is off by 40 cents and the
    // clock by a couple of minutes at the paper's "maximum" resolution the
    // amount rounds away anyway; the timestamp must hit the ledger close.
    let overheard = Observation {
        amount: Some("4.9".parse().unwrap()), // misheard the price
        time: Some(latte_moment),
        currency: Some(Currency::USD),
        strength: None, // the observed currency already fixes the rounding
        destination: Some(bar),
    };

    let candidates = index.query(&overheard);
    println!("\ncandidate senders for the latte: {}", candidates.len());
    match candidates.as_slice() {
        [only] => {
            println!("de-anonymized: {}", only);
            assert_eq!(*only, bob, "the single candidate is Bob");
            let profile = index.profile(*only);
            println!("\n--- Bob's financial life, unrolled from public data ---");
            println!("payments sent:      {}", profile.payments_sent);
            println!("payments received:  {}", profile.payments_received);
            for (currency, total) in &profile.sent_by_currency {
                println!("total sent in {currency}: {total}");
            }
            println!("favourite places:");
            for (dest, count) in profile.top_destinations.iter().take(3) {
                let tag = if *dest == bar { "  <- the bar" } else { "" };
                println!("  {} x{count}{tag}", dest.short());
            }
            if let Some((currency, monthly)) = profile.monthly_outflow {
                println!("monthly outflow:    ~{monthly} {currency}");
            }
        }
        [] => println!("no match — Alice's observation was too coarse"),
        several => println!("ambiguous: {} candidates remain", several.len()),
    }
}
