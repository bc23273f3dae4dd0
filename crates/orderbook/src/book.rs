//! Price-time-priority order books and XRP auto-bridging.

use std::collections::HashMap;

use ripple_crypto::AccountId;
use ripple_ledger::{Amount, Currency, LedgerState, Value};

use crate::rate::Rate;

/// A resting offer inside a book: the owner gives the book's *base*
/// currency, wants the *quote* currency at `rate`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BookEntry {
    /// Offer owner.
    pub owner: AccountId,
    /// Offer identity (creating transaction's sequence).
    pub offer_seq: u32,
    /// Remaining base-currency amount on offer.
    pub remaining: Value,
    /// Price in quote per base.
    pub rate: Rate,
    /// Arrival order (price-time priority tiebreak).
    pub arrival: u64,
}

/// One consumed slice of a resting offer.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FillPart {
    /// Offer owner whose liquidity was taken.
    pub owner: AccountId,
    /// Offer identity.
    pub offer_seq: u32,
    /// Base currency taken from the offer.
    pub taken: Value,
    /// Quote currency owed to the owner.
    pub paid: Value,
}

/// Outcome of walking a book.
#[derive(Debug, Clone, PartialEq)]
pub struct FillOutcome {
    /// Total base currency obtained (≤ requested on thin books).
    pub filled: Value,
    /// Total quote currency paid.
    pub paid: Value,
    /// The per-offer slices, best rate first.
    pub parts: Vec<FillPart>,
}

impl FillOutcome {
    fn empty() -> FillOutcome {
        FillOutcome {
            filled: Value::ZERO,
            paid: Value::ZERO,
            parts: Vec::new(),
        }
    }

    /// Whether the requested amount was fully available.
    pub fn is_complete(&self, requested: Value) -> bool {
        self.filled == requested
    }
}

/// An order book for one currency pair: offers *selling* `base` priced in
/// `quote`, sorted by ascending rate then arrival.
#[derive(Debug, Clone)]
pub struct OrderBook {
    base: Currency,
    quote: Currency,
    entries: Vec<BookEntry>,
    arrivals: u64,
}

impl OrderBook {
    /// Creates an empty book for the pair.
    pub fn new(base: Currency, quote: Currency) -> OrderBook {
        OrderBook {
            base,
            quote,
            entries: Vec::new(),
            arrivals: 0,
        }
    }

    /// The base (sold) currency.
    pub fn base(&self) -> Currency {
        self.base
    }

    /// The quote (payment) currency.
    pub fn quote(&self) -> Currency {
        self.quote
    }

    /// Number of resting offers.
    pub fn depth(&self) -> usize {
        self.entries.len()
    }

    /// Total base-currency liquidity on the book.
    pub fn liquidity(&self) -> Value {
        self.entries.iter().map(|e| e.remaining).sum()
    }

    /// The best (lowest) rate, if any offer rests.
    pub fn best_rate(&self) -> Option<Rate> {
        self.entries.first().map(|e| e.rate)
    }

    /// Inserts an offer selling `remaining` of base at `rate`.
    pub fn insert(&mut self, owner: AccountId, offer_seq: u32, remaining: Value, rate: Rate) {
        let arrival = self.arrivals;
        self.arrivals += 1;
        let entry = BookEntry {
            owner,
            offer_seq,
            remaining,
            rate,
            arrival,
        };
        let pos = self
            .entries
            .partition_point(|e| (e.rate, e.arrival) <= (rate, arrival));
        self.entries.insert(pos, entry);
    }

    /// Iterates entries best-first.
    pub fn iter(&self) -> impl Iterator<Item = &BookEntry> {
        self.entries.iter()
    }

    /// Quotes (without consuming) the cost of buying `amount` of base.
    /// Returns `None` if the book cannot cover the amount.
    pub fn quote_buy(&self, amount: Value) -> Option<Value> {
        let mut need = amount;
        let mut cost = Value::ZERO;
        for entry in &self.entries {
            if !need.is_positive() {
                break;
            }
            let take = if entry.remaining < need {
                entry.remaining
            } else {
                need
            };
            cost = cost + entry.rate.apply(take);
            need = need - take;
        }
        if need.is_positive() {
            None
        } else {
            Some(cost)
        }
    }

    /// Consumes liquidity to buy up to `amount` of base, best rate first.
    /// Thin books fill partially; the caller inspects
    /// [`FillOutcome::is_complete`].
    pub fn fill(&mut self, amount: Value) -> FillOutcome {
        if !amount.is_positive() {
            return FillOutcome::empty();
        }
        let mut need = amount;
        let mut out = FillOutcome::empty();
        let mut consumed = 0usize;
        for entry in self.entries.iter_mut() {
            if !need.is_positive() {
                break;
            }
            let take = if entry.remaining < need {
                entry.remaining
            } else {
                need
            };
            let paid = entry.rate.apply(take);
            out.parts.push(FillPart {
                owner: entry.owner,
                offer_seq: entry.offer_seq,
                taken: take,
                paid,
            });
            out.filled = out.filled + take;
            out.paid = out.paid + paid;
            need = need - take;
            entry.remaining = entry.remaining - take;
            if entry.remaining.is_zero() {
                consumed += 1;
            }
        }
        if consumed > 0 {
            self.entries.retain(|e| !e.remaining.is_zero());
        }
        out
    }
}

/// All order books in the system, keyed by `(base, quote)` pair.
#[derive(Debug, Clone, Default)]
pub struct BookSet {
    books: HashMap<(Currency, Currency), OrderBook>,
}

impl BookSet {
    /// Creates an empty book set.
    pub fn new() -> BookSet {
        BookSet::default()
    }

    /// Builds the book set from the offers resting in a ledger. Offers are
    /// interpreted as selling `taker_gets.currency` for
    /// `taker_pays.currency`.
    pub fn from_ledger(state: &LedgerState) -> BookSet {
        let mut set = BookSet::new();
        for offer in state.offers() {
            let (gets_cur, gets_val) = flatten(&offer.taker_gets);
            let (pays_cur, pays_val) = flatten(&offer.taker_pays);
            if let Some(rate) = Rate::from_amounts(pays_val, gets_val) {
                set.book_mut(gets_cur, pays_cur).insert(
                    offer.owner,
                    offer.offer_seq,
                    gets_val,
                    rate,
                );
            }
        }
        set
    }

    /// The book for `(base, quote)`, creating it lazily.
    pub fn book_mut(&mut self, base: Currency, quote: Currency) -> &mut OrderBook {
        self.books
            .entry((base, quote))
            .or_insert_with(|| OrderBook::new(base, quote))
    }

    /// The book for `(base, quote)`, if it exists.
    pub fn book(&self, base: Currency, quote: Currency) -> Option<&OrderBook> {
        self.books.get(&(base, quote))
    }

    /// Total resting offers across all books.
    pub fn total_offers(&self) -> usize {
        self.books.values().map(OrderBook::depth).sum()
    }
}

fn flatten(amount: &Amount) -> (Currency, Value) {
    (amount.currency(), amount.value())
}

#[cfg(test)]
mod tests {
    use super::*;
    use ripple_ledger::Drops;

    fn acct(n: u8) -> AccountId {
        AccountId::from_bytes([n; 20])
    }

    fn v(s: &str) -> Value {
        s.parse().unwrap()
    }

    #[test]
    fn best_rate_first() {
        let mut book = OrderBook::new(Currency::EUR, Currency::USD);
        book.insert(acct(1), 1, v("100"), Rate::new(12, 10));
        book.insert(acct(2), 1, v("100"), Rate::new(11, 10));
        assert_eq!(book.best_rate().unwrap(), Rate::new(11, 10));
        let fill = book.fill(v("50"));
        assert_eq!(fill.parts[0].owner, acct(2));
        assert_eq!(fill.paid, v("55"));
    }

    #[test]
    fn time_priority_within_same_rate() {
        let mut book = OrderBook::new(Currency::EUR, Currency::USD);
        book.insert(acct(1), 1, v("10"), Rate::UNIT);
        book.insert(acct(2), 1, v("10"), Rate::UNIT);
        let fill = book.fill(v("10"));
        assert_eq!(fill.parts.len(), 1);
        assert_eq!(fill.parts[0].owner, acct(1), "earlier offer fills first");
    }

    #[test]
    fn partial_fill_across_offers() {
        let mut book = OrderBook::new(Currency::EUR, Currency::USD);
        book.insert(acct(1), 1, v("30"), Rate::UNIT);
        book.insert(acct(2), 1, v("30"), Rate::new(2, 1));
        let fill = book.fill(v("50"));
        assert_eq!(fill.filled, v("50"));
        assert_eq!(fill.paid, v("30") + v("40"));
        assert_eq!(book.depth(), 1);
        assert_eq!(book.liquidity(), v("10"));
    }

    #[test]
    fn thin_book_fills_partially() {
        let mut book = OrderBook::new(Currency::EUR, Currency::USD);
        book.insert(acct(1), 1, v("5"), Rate::UNIT);
        let fill = book.fill(v("50"));
        assert_eq!(fill.filled, v("5"));
        assert!(!fill.is_complete(v("50")));
        assert_eq!(book.depth(), 0);
    }

    #[test]
    fn quote_does_not_mutate() {
        let mut book = OrderBook::new(Currency::EUR, Currency::USD);
        book.insert(acct(1), 1, v("100"), Rate::new(3, 2));
        assert_eq!(book.quote_buy(v("10")).unwrap(), v("15"));
        assert!(book.quote_buy(v("200")).is_none());
        assert_eq!(book.liquidity(), v("100"));
    }

    #[test]
    fn zero_amount_fill_is_empty() {
        let mut book = OrderBook::new(Currency::EUR, Currency::USD);
        book.insert(acct(1), 1, v("10"), Rate::UNIT);
        let fill = book.fill(Value::ZERO);
        assert!(fill.parts.is_empty());
        assert_eq!(book.depth(), 1);
    }

    #[test]
    fn bookset_builds_from_ledger_offers() {
        let mut state = LedgerState::new();
        state.create_account(acct(1), Drops::from_xrp(1_000));
        state
            .place_offer(
                acct(1),
                1,
                ripple_ledger::IouAmount::new(v("100"), Currency::EUR, acct(1)).into(),
                ripple_ledger::IouAmount::new(v("110"), Currency::USD, acct(1)).into(),
            )
            .unwrap();
        let set = BookSet::from_ledger(&state);
        assert_eq!(set.total_offers(), 1);
        let book = set.book(Currency::EUR, Currency::USD).unwrap();
        assert_eq!(book.best_rate().unwrap(), Rate::new(11, 10));
    }

    #[test]
    fn no_liquidity_no_quote() {
        let mut book = OrderBook::new(Currency::EUR, Currency::USD);
        assert!(
            book.quote_buy(v("1")).is_none(),
            "an empty book quotes nothing"
        );
        book.insert(acct(1), 1, v("10"), Rate::UNIT);
        assert!(book.quote_buy(v("11")).is_none(), "10 EUR cannot cover 11");
        assert_eq!(book.quote_buy(v("10")), Some(v("10")));
    }
}
