//! Valuations `ν : Ω → 2^N` — the outputs of CCEA/PCEA runs — and label
//! sets, with the product operation `⊕` of Section 5.
//!
//! The label alphabet Ω is finite and fixed per automaton; we represent a
//! subset of Ω as a 64-bit [`LabelSet`], which caps |Ω| at 64. Compiled
//! conjunctive queries use one label per atom occurrence, so this supports
//! queries with up to 64 atoms — far beyond anything evaluable.
//!
//! A [`Valuation`] is what every completed match carries from the
//! enumerator to a subscriber's socket and out of the client's decoder,
//! so it is a single flat buffer — offsets, then positions — cloned,
//! moved and freed as one block. Its type docs give the layout, the
//! invariants and what each operation costs. A [`ValuationRef`] is the
//! same layout borrowed from wherever the words lie — the enumerator's
//! scratch, or a run of words in a buffer shared by many matches.

use std::fmt;

/// A single output label `ℓ ∈ Ω`, identified by its index.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Label(pub u32);

impl Label {
    /// Index into per-label storage.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Debug for Label {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "ℓ{}", self.0)
    }
}

/// Maximum number of labels supported by [`LabelSet`].
pub const MAX_LABELS: usize = 64;

cer_common::wire_struct! {
    /// A non-empty-or-empty subset of Ω as a 64-bit bitmask.
    #[derive(Clone, Copy, PartialEq, Eq, Hash, Default)]
    pub struct LabelSet(pub u64);
}

impl LabelSet {
    /// The empty label set (not allowed on transitions, useful as identity).
    pub const EMPTY: LabelSet = LabelSet(0);

    /// Singleton label set.
    #[inline]
    pub fn singleton(l: Label) -> Self {
        assert!((l.index()) < MAX_LABELS, "label index out of range");
        LabelSet(1u64 << l.0)
    }

    /// Build from an iterator of labels.
    pub fn from_labels(labels: impl IntoIterator<Item = Label>) -> Self {
        labels.into_iter().fold(LabelSet::EMPTY, |s, l| s.with(l))
    }

    /// This set plus one label.
    #[inline]
    pub fn with(self, l: Label) -> Self {
        assert!((l.index()) < MAX_LABELS, "label index out of range");
        LabelSet(self.0 | (1u64 << l.0))
    }

    /// Membership test.
    #[inline]
    pub fn contains(self, l: Label) -> bool {
        l.index() < MAX_LABELS && self.0 & (1u64 << l.0) != 0
    }

    /// Set union.
    #[inline]
    pub fn union(self, other: LabelSet) -> Self {
        LabelSet(self.0 | other.0)
    }

    /// Whether the two sets share a label.
    #[inline]
    pub fn intersects(self, other: LabelSet) -> bool {
        self.0 & other.0 != 0
    }

    /// Whether the set is empty.
    #[inline]
    pub fn is_empty(self) -> bool {
        self.0 == 0
    }

    /// Number of labels in the set.
    #[inline]
    pub fn len(self) -> usize {
        self.0.count_ones() as usize
    }

    /// Iterate over member labels in increasing index order.
    pub fn iter(self) -> impl Iterator<Item = Label> {
        let mut bits = self.0;
        std::iter::from_fn(move || {
            if bits == 0 {
                None
            } else {
                let i = bits.trailing_zeros();
                bits &= bits - 1;
                Some(Label(i))
            }
        })
    }
}

impl fmt::Debug for LabelSet {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{{")?;
        for (k, l) in self.iter().enumerate() {
            if k > 0 {
                write!(f, ",")?;
            }
            write!(f, "{l:?}")?;
        }
        write!(f, "}}")
    }
}

/// A valuation `ν : Ω → 2^N`: for each label, a sorted set of stream
/// positions.
///
/// Valuations are the outputs of CER queries: `ν(ℓ)` is the set of
/// positions annotated with label `ℓ` by an accepting run. The paper's
/// product `ν ⊕ ν′` is pointwise union; it is *simple* when the operands
/// are pointwise disjoint (Section 5), which is what unambiguous automata
/// guarantee and what the enumeration structure relies on.
///
/// # Layout
///
/// A valuation is **one** heap buffer of `|Ω| + |ν|` words: first the
/// per-label *end offsets*, then every position, grouped by label:
///
/// ```text
/// buf = [ end_0, …, end_{n−1} | ν(ℓ0)… | ν(ℓ1)… | … | ν(ℓ{n−1})… ]
///         └──── n = |Ω| ────┘   └──────── |ν| positions ────────┘
/// ```
///
/// `ν(ℓ) = buf[end_{ℓ−1} .. end_ℓ]` with `end_{−1} = n`. Invariants,
/// upheld by every constructor, by `insert`/`remove`/`product_assign`
/// and by `decode`:
///
/// * `n ≤ end_0 ≤ end_1 ≤ … ≤ end_{n−1} = buf.len()`;
/// * each group is strictly increasing (a sorted set);
/// * the buffer holds nothing else, so two valuations are equal iff
///   their label counts and buffers are.
///
/// # Costs
///
/// `clone` is one allocation and one `memcpy`, `drop` one `free`, a move
/// four words; `Valuation::default()` (no labels) allocates nothing.
/// `get`, `weight`, `is_empty`, `num_labels` are `O(1)`; `min_pos`,
/// `max_pos` are `O(|Ω|)`; `entries`, `simple_with`, equality, ordering,
/// hashing and the wire codec are one pass, `O(|Ω| + |ν|)`;
/// `product_assign` is one merge pass into one new buffer. `insert` and
/// `remove` binary-search the label's group, move every position stored
/// *after* the slot by one word and bump the end offsets from the label
/// on: `O(|Ω| + |ν|)` worst case (front-inserting under the first
/// label), `O(|Ω|)` when the position lands at the buffer's end — the
/// same order as the per-label `Vec::insert` this layout replaced, with
/// one `memmove` over a buffer that is a cache line or two for the
/// valuations queries produce.
#[derive(Clone, PartialEq, Eq, Hash, Default)]
pub struct Valuation {
    /// `|Ω|`: how many leading words of `buf` are end offsets.
    labels: usize,
    /// End offsets, then positions grouped by label (see the type docs).
    buf: Vec<u64>,
}

impl Valuation {
    /// The empty valuation over `num_labels` labels.
    pub fn empty(num_labels: usize) -> Self {
        Valuation {
            labels: num_labels,
            buf: vec![num_labels as u64; num_labels],
        }
    }

    /// The paper's `ν_{L,i}`: position `i` under every label in `L`,
    /// empty elsewhere.
    pub fn singleton(num_labels: usize, labels: LabelSet, pos: u64) -> Self {
        assert!(
            num_labels >= MAX_LABELS || labels.0 >> num_labels == 0,
            "label index out of range"
        );
        let mut buf = Vec::with_capacity(num_labels + labels.len());
        let mut end = num_labels as u64;
        for l in 0..num_labels {
            end += u64::from(labels.contains(Label(l as u32)));
            buf.push(end);
        }
        buf.resize(end as usize, pos);
        Valuation {
            labels: num_labels,
            buf,
        }
    }

    /// Number of labels in the underlying Ω.
    pub fn num_labels(&self) -> usize {
        self.labels
    }

    /// Where `ν(ℓ)` lives in `buf`. Panics on a label outside Ω — an
    /// unchecked index would read a position as an offset.
    #[inline]
    fn group(&self, l: usize) -> std::ops::Range<usize> {
        assert!(l < self.labels, "label index out of range");
        let start = if l == 0 {
            self.labels
        } else {
            self.buf[l - 1] as usize
        };
        start..self.buf[l] as usize
    }

    /// `ν(ℓ0), ν(ℓ1), …` in label order.
    fn groups(&self) -> impl Iterator<Item = &[u64]> + '_ {
        self.view().groups()
    }

    /// The valuation borrowed: the same words, no copy.
    #[inline]
    pub fn view(&self) -> ValuationRef<'_> {
        ValuationRef {
            labels: self.labels,
            buf: &self.buf,
        }
    }

    /// The positions assigned to a label.
    pub fn get(&self, l: Label) -> &[u64] {
        &self.buf[self.group(l.index())]
    }

    /// Whether every `ν(ℓ)` is empty.
    pub fn is_empty(&self) -> bool {
        self.buf.len() == self.labels
    }

    /// Total number of (label, position) pairs: the output size `|ν|`.
    pub fn weight(&self) -> usize {
        self.buf.len() - self.labels
    }

    /// `min(ν)`: the smallest position mentioned, if any.
    pub fn min_pos(&self) -> Option<u64> {
        self.groups().filter_map(<[u64]>::first).min().copied()
    }

    /// The largest position mentioned, if any.
    pub fn max_pos(&self) -> Option<u64> {
        self.groups().filter_map(<[u64]>::last).max().copied()
    }

    /// Add position `pos` under every label of `labels`, in place.
    ///
    /// Keeps each per-label group sorted; positions already present are
    /// not duplicated (2^N is a set).
    pub fn insert(&mut self, labels: LabelSet, pos: u64) {
        for l in labels.iter() {
            let group = self.group(l.index());
            if let Err(k) = self.buf[group.clone()].binary_search(&pos) {
                self.buf.insert(group.start + k, pos);
                for end in &mut self.buf[l.index()..self.labels] {
                    *end += 1;
                }
            }
        }
    }

    /// Remove position `pos` from every label of `labels`, in place.
    ///
    /// The inverse of [`Valuation::insert`] for simple products; used by
    /// the engine's backtracking enumerator.
    pub fn remove(&mut self, labels: LabelSet, pos: u64) {
        for l in labels.iter() {
            let group = self.group(l.index());
            if let Ok(k) = self.buf[group.clone()].binary_search(&pos) {
                self.buf.remove(group.start + k);
                for end in &mut self.buf[l.index()..self.labels] {
                    *end -= 1;
                }
            }
        }
    }

    /// The product `ν ⊕ ν′` (pointwise union).
    pub fn product(&self, other: &Valuation) -> Valuation {
        let mut out = self.clone();
        out.product_assign(other);
        out
    }

    /// In-place product `ν ⊕= ν′`: one merge pass into one new buffer.
    pub fn product_assign(&mut self, other: &Valuation) {
        assert_eq!(
            self.labels, other.labels,
            "valuations over different label alphabets"
        );
        if other.is_empty() {
            return;
        }
        let mut buf = Vec::with_capacity(self.buf.len() + other.weight());
        buf.resize(self.labels, 0);
        for (l, (a, b)) in self.groups().zip(other.groups()).enumerate() {
            merge_sorted_dedup(a, b, &mut buf);
            buf[l] = buf.len() as u64;
        }
        self.buf = buf;
    }

    /// Whether `self ⊕ other` is *simple*: pointwise disjoint supports.
    pub fn simple_with(&self, other: &Valuation) -> bool {
        self.groups()
            .zip(other.groups())
            .all(|(a, b)| sorted_disjoint(a, b))
    }

    /// Iterate `(label, position)` pairs in label order.
    pub fn entries(&self) -> impl Iterator<Item = (Label, u64)> + '_ {
        self.groups()
            .enumerate()
            .flat_map(|(l, s)| s.iter().map(move |&p| (Label(l as u32), p)))
    }
}

/// Label by label, each `ν(ℓ)` compared as a sorted list — the order of
/// the lists themselves, whatever the offset words in front of them say.
impl Ord for Valuation {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        let n = self.labels;
        if n == other.labels && self.buf[..n] == other.buf[..n] {
            // Same group sizes (always, for the outputs of one compiled
            // conjunctive query): list by list is word by word.
            return self.buf[n..].cmp(&other.buf[n..]);
        }
        self.groups().cmp(other.groups())
    }
}

impl PartialOrd for Valuation {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

// Not a `wire_struct!` row: decoding validates the groups and builds the
// flat buffer in place, pre-sized, with one allocation.
impl cer_common::wire::Wire for Valuation {
    fn encode(
        &self,
        w: &mut cer_common::wire::WireWriter,
    ) -> Result<(), cer_common::wire::WireError> {
        self.view().encode(w);
        Ok(())
    }

    /// Builds the buffer in place with one allocation: the wire form is
    /// a word per label and a word per position — the buffer's own size
    /// — so what is left of the input bounds it, exactly when the
    /// valuation is the payload's last field (as in an `Event` frame).
    fn decode(
        r: &mut cer_common::wire::WireReader<'_>,
    ) -> Result<Self, cer_common::wire::WireError> {
        use cer_common::wire::WireError;
        let labels = r.get_len()?;
        // The label count sizes the offset table; `LabelSet` cannot
        // address more than `MAX_LABELS`, so no honest peer sends more.
        if labels > MAX_LABELS {
            return Err(WireError::Corrupt("valuation over more than 64 labels"));
        }
        let words = r.remaining() / 8;
        if words < labels {
            return Err(WireError::Truncated);
        }
        // Every word pushed below was first read from `r`, so `words`
        // is never outgrown, whatever lengths the peer announces.
        let mut buf = Vec::with_capacity(words);
        buf.resize(labels, 0);
        for l in 0..labels {
            let start = buf.len();
            for _ in 0..r.get_len()? {
                buf.push(r.get_u64()?);
            }
            // The per-label lists are sorted sets by construction;
            // decoded bytes must uphold the same invariant or later
            // products would silently misbehave.
            if !buf[start..].windows(2).all(|w| w[0] < w[1]) {
                return Err(WireError::Corrupt(
                    "valuation positions not strictly sorted",
                ));
            }
            buf[l] = buf.len() as u64;
        }
        Ok(Valuation { labels, buf })
    }
}

impl fmt::Debug for Valuation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        self.view().fmt(f)
    }
}

/// A [`Valuation`] borrowed from wherever its words lie: `|Ω|` and a
/// slice in the owned type's layout (end offsets, then positions; see
/// [`Valuation`]). Equal iff the valuations are. It is what lets a
/// match be copied as words into a buffer shared by many matches,
/// encoded from there, and turned into an owned [`Valuation`] only by a
/// consumer that asks for one.
#[derive(Clone, Copy, PartialEq, Eq, Hash)]
pub struct ValuationRef<'a> {
    labels: usize,
    buf: &'a [u64],
}

impl<'a> ValuationRef<'a> {
    /// View `words` — a copy of some valuation's
    /// [`words`](Self::words) — as a valuation over `labels` labels.
    /// Checks the offset table (`O(|Ω|)`), so no accessor can index
    /// outside `words`; the positions are trusted to be what they were
    /// copied from.
    ///
    /// # Panics
    ///
    /// On `labels > MAX_LABELS` or an offset table that does not
    /// describe `words`.
    #[inline]
    pub fn from_words(labels: usize, words: &'a [u64]) -> Self {
        let ends = words.get(..labels).filter(|_| labels <= MAX_LABELS);
        let well_formed = ends.is_some_and(|ends| {
            let mut at = labels as u64;
            ends.iter().all(|&end| {
                let ok = at <= end;
                at = end;
                ok
            }) && at == words.len() as u64
        });
        assert!(
            well_formed,
            "not the words of a valuation over {labels} labels"
        );
        ValuationRef { labels, buf: words }
    }

    /// Number of labels in the underlying Ω.
    #[inline]
    pub fn num_labels(self) -> usize {
        self.labels
    }

    /// The flat buffer, `|Ω| + |ν|` words: what to copy to keep the
    /// valuation, and what [`from_words`](Self::from_words) takes back.
    #[inline]
    pub fn words(self) -> &'a [u64] {
        self.buf
    }

    /// The owned valuation: one allocation, one `memcpy`.
    pub fn to_valuation(self) -> Valuation {
        Valuation {
            labels: self.labels,
            buf: self.buf.to_vec(),
        }
    }

    /// `ν(ℓ0), ν(ℓ1), …` in label order.
    #[inline]
    fn groups(self) -> impl Iterator<Item = &'a [u64]> {
        let (buf, mut start) = (self.buf, self.labels);
        buf[..self.labels].iter().map(move |&end| {
            let group = &buf[start..end as usize];
            start = end as usize;
            group
        })
    }

    /// Append the valuation's wire form: the label count, then per
    /// label a length and the positions, every field one little-endian
    /// word — `8 · (1 + |Ω| + |ν|)` bytes. [`Valuation`]'s
    /// [`Wire`](cer_common::wire::Wire) encoding is this.
    #[inline]
    pub fn encode(self, w: &mut cer_common::wire::WireWriter) {
        w.put_len(self.labels);
        for group in self.groups() {
            w.put_len(group.len());
            for &p in group {
                w.put_u64(p);
            }
        }
    }
}

impl fmt::Debug for ValuationRef<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{{")?;
        let mut first = true;
        for (l, s) in self.groups().enumerate() {
            if s.is_empty() {
                continue;
            }
            if !first {
                write!(f, ", ")?;
            }
            first = false;
            write!(f, "ℓ{l}↦{s:?}")?;
        }
        write!(f, "}}")
    }
}

/// Append the sorted union of two sorted lists to `out`.
fn merge_sorted_dedup(a: &[u64], b: &[u64], out: &mut Vec<u64>) {
    let (mut i, mut j) = (0, 0);
    while i < a.len() && j < b.len() {
        match a[i].cmp(&b[j]) {
            std::cmp::Ordering::Less => {
                out.push(a[i]);
                i += 1;
            }
            std::cmp::Ordering::Greater => {
                out.push(b[j]);
                j += 1;
            }
            std::cmp::Ordering::Equal => {
                out.push(a[i]);
                i += 1;
                j += 1;
            }
        }
    }
    out.extend_from_slice(&a[i..]);
    out.extend_from_slice(&b[j..]);
}

fn sorted_disjoint(a: &[u64], b: &[u64]) -> bool {
    let (mut i, mut j) = (0, 0);
    while i < a.len() && j < b.len() {
        match a[i].cmp(&b[j]) {
            std::cmp::Ordering::Less => i += 1,
            std::cmp::Ordering::Greater => j += 1,
            std::cmp::Ordering::Equal => return false,
        }
    }
    true
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn labelset_basic_ops() {
        let s = LabelSet::from_labels([Label(0), Label(3)]);
        assert!(s.contains(Label(0)));
        assert!(s.contains(Label(3)));
        assert!(!s.contains(Label(1)));
        assert_eq!(s.len(), 2);
        let t = LabelSet::singleton(Label(3));
        assert!(s.intersects(t));
        assert_eq!(s.union(t), s);
        assert_eq!(s.iter().collect::<Vec<_>>(), vec![Label(0), Label(3)]);
    }

    #[test]
    #[should_panic(expected = "label index out of range")]
    fn labelset_rejects_large_labels() {
        let _ = LabelSet::singleton(Label(64));
    }

    #[test]
    fn singleton_valuation_matches_nu_l_i() {
        let v = Valuation::singleton(3, LabelSet::from_labels([Label(0), Label(2)]), 7);
        assert_eq!(v.get(Label(0)), &[7]);
        assert_eq!(v.get(Label(1)), &[] as &[u64]);
        assert_eq!(v.get(Label(2)), &[7]);
        assert_eq!(v.min_pos(), Some(7));
        assert_eq!(v.max_pos(), Some(7));
        assert_eq!(v.weight(), 2);
    }

    #[test]
    fn product_is_pointwise_union() {
        let a = Valuation::singleton(2, LabelSet::singleton(Label(0)), 1);
        let b = Valuation::singleton(2, LabelSet::singleton(Label(0)), 5);
        let c = Valuation::singleton(2, LabelSet::singleton(Label(1)), 3);
        let ab = a.product(&b);
        assert_eq!(ab.get(Label(0)), &[1, 5]);
        let abc = ab.product(&c);
        assert_eq!(abc.get(Label(1)), &[3]);
        assert_eq!(abc.min_pos(), Some(1));
        assert_eq!(abc.max_pos(), Some(5));
    }

    #[test]
    fn product_is_commutative_and_associative() {
        let a = Valuation::singleton(2, LabelSet::singleton(Label(0)), 1);
        let b = Valuation::singleton(2, LabelSet::singleton(Label(1)), 2);
        let c = Valuation::singleton(2, LabelSet::from_labels([Label(0), Label(1)]), 9);
        assert_eq!(a.product(&b), b.product(&a));
        assert_eq!(a.product(&b).product(&c), a.product(&b.product(&c)));
    }

    #[test]
    fn simplicity_detects_overlap() {
        let a = Valuation::singleton(1, LabelSet::singleton(Label(0)), 4);
        let b = Valuation::singleton(1, LabelSet::singleton(Label(0)), 4);
        let c = Valuation::singleton(1, LabelSet::singleton(Label(0)), 5);
        assert!(!a.simple_with(&b));
        assert!(a.simple_with(&c));
    }

    #[test]
    fn insert_keeps_sorted_no_dupes() {
        let mut v = Valuation::empty(1);
        v.insert(LabelSet::singleton(Label(0)), 9);
        v.insert(LabelSet::singleton(Label(0)), 3);
        v.insert(LabelSet::singleton(Label(0)), 9);
        assert_eq!(v.get(Label(0)), &[3, 9]);
    }

    #[test]
    fn min_of_product_is_min_of_mins() {
        // The window-filtering identity the engine relies on (§5).
        let a = Valuation::singleton(2, LabelSet::singleton(Label(0)), 10);
        let b = Valuation::singleton(2, LabelSet::singleton(Label(1)), 4);
        assert_eq!(
            a.product(&b).min_pos(),
            std::cmp::min(a.min_pos(), b.min_pos())
        );
    }

    #[test]
    fn entries_iterates_label_order() {
        let mut v = Valuation::empty(2);
        v.insert(LabelSet::singleton(Label(1)), 2);
        v.insert(LabelSet::singleton(Label(0)), 8);
        let es: Vec<_> = v.entries().collect();
        assert_eq!(es, vec![(Label(0), 8), (Label(1), 2)]);
    }

    #[test]
    fn wire_roundtrip_rejects_unsorted_and_truncated() {
        use cer_common::wire::{Wire, WireReader, WireWriter};
        let mut v = Valuation::empty(3);
        v.insert(LabelSet::from_labels([Label(0), Label(2)]), 4);
        v.insert(LabelSet::singleton(Label(0)), 1);
        let mut w = WireWriter::new();
        v.encode(&mut w).unwrap();
        let bytes = w.into_bytes();
        let mut r = WireReader::new(&bytes);
        assert_eq!(Valuation::decode(&mut r).unwrap(), v);
        assert!(r.is_exhausted());
        for cut in 0..bytes.len() {
            let mut r = WireReader::new(&bytes[..cut]);
            assert!(Valuation::decode(&mut r).is_err(), "cut {cut}");
        }
        // An out-of-order position list is rejected, not adopted.
        let mut w = WireWriter::new();
        w.put_len(1);
        w.put_len(2);
        w.put_u64(9);
        w.put_u64(3);
        let bytes = w.into_bytes();
        let mut r = WireReader::new(&bytes);
        assert!(Valuation::decode(&mut r).is_err());
    }
    pub(super) fn wire_bytes(v: &Valuation) -> Vec<u8> {
        use cer_common::wire::{Wire, WireWriter};
        let mut w = WireWriter::new();
        v.encode(&mut w).unwrap();
        w.into_bytes()
    }

    pub(super) fn from_wire(bytes: &[u8]) -> Result<Valuation, cer_common::wire::WireError> {
        use cer_common::wire::{Wire, WireReader};
        Valuation::decode(&mut WireReader::new(bytes))
    }

    /// The encoded bytes and the `Debug` text, captured at the commit
    /// before the flat buffer (one `Vec` per label): the layout is
    /// private, these are not.
    #[test]
    fn wire_bytes_and_debug_text_are_those_of_the_per_label_vectors() {
        fn hex(v: &Valuation) -> String {
            wire_bytes(v).iter().map(|b| format!("{b:02x}")).collect()
        }

        let none = Valuation::empty(3);
        assert_eq!(
            hex(&none),
            concat!(
                "0300000000000000",
                "0000000000000000",
                "0000000000000000",
                "0000000000000000",
            )
        );
        assert_eq!(format!("{none:?}"), "{}");

        let mut one_each = Valuation::empty(4);
        for (l, p) in [(0, 7), (1, 3), (2, 300), (3, 65536)] {
            one_each.insert(LabelSet::singleton(Label(l)), p);
        }
        assert_eq!(
            hex(&one_each),
            concat!(
                "0400000000000000",
                "0100000000000000",
                "0700000000000000",
                "0100000000000000",
                "0300000000000000",
                "0100000000000000",
                "2c01000000000000",
                "0100000000000000",
                "0000010000000000",
            )
        );
        assert_eq!(
            format!("{one_each:?}"),
            "{ℓ0↦[7], ℓ1↦[3], ℓ2↦[300], ℓ3↦[65536]}"
        );

        let both = LabelSet::from_labels([Label(0), Label(1)]);
        let mut shared = Valuation::empty(2);
        shared.insert(both, 9);
        shared.insert(both, 2);
        shared.insert(LabelSet::singleton(Label(1)), 1 << 40);
        assert_eq!(
            hex(&shared),
            concat!(
                "0200000000000000",
                "0200000000000000",
                "0200000000000000",
                "0900000000000000",
                "0300000000000000",
                "0200000000000000",
                "0900000000000000",
                "0000000000010000",
            )
        );
        assert_eq!(
            format!("{shared:?}"),
            "{ℓ0↦[2, 9], ℓ1↦[2, 9, 1099511627776]}"
        );

        let mut gap = Valuation::empty(3);
        gap.insert(LabelSet::singleton(Label(0)), 5);
        gap.insert(LabelSet::singleton(Label(0)), 1);
        gap.insert(LabelSet::singleton(Label(2)), 3);
        assert_eq!(format!("{gap:?}"), "{ℓ0↦[1, 5], ℓ2↦[3]}");
    }

    #[test]
    fn decode_caps_the_label_count_and_never_outruns_the_payload() {
        use cer_common::wire::{WireError, WireWriter};
        // 64 labels is the most a `LabelSet` can address …
        assert_eq!(
            from_wire(&wire_bytes(&Valuation::empty(64)))
                .unwrap()
                .num_labels(),
            64
        );
        // … and 65 is refused before the count sizes anything, however
        // well-formed the rest of the frame is.
        let bytes = wire_bytes(&Valuation::empty(65));
        assert_eq!(
            from_wire(&bytes),
            Err(WireError::Corrupt("valuation over more than 64 labels"))
        );
        // Per-label lengths that announce more than the payload holds:
        // the first label claims three positions, one follows.
        let mut w = WireWriter::new();
        w.put_len(2);
        w.put_len(3);
        w.put_u64(1);
        assert_eq!(from_wire(&w.into_bytes()), Err(WireError::Truncated));
        // A length no frame could back is an error too, not a reservation.
        let mut w = WireWriter::new();
        w.put_len(1);
        w.put_u64(u64::MAX);
        assert!(from_wire(&w.into_bytes()).is_err());
        // Fewer bytes than one length word per announced label.
        let mut w = WireWriter::new();
        w.put_len(3);
        w.put_len(0);
        assert_eq!(from_wire(&w.into_bytes()), Err(WireError::Truncated));
    }

    /// A view of a valuation's words, wherever they were copied, is
    /// that valuation: same bytes on the wire, same debug text, equal
    /// when owned again.
    #[test]
    fn a_view_of_copied_words_is_the_valuation() {
        let mut v = Valuation::empty(4);
        for (l, p) in [(0, 11), (1, 5), (1, 8), (3, u64::MAX)] {
            v.insert(LabelSet::singleton(Label(l)), p);
        }
        for v in [v, Valuation::default(), Valuation::empty(64)] {
            let copied = v.view().words().to_vec();
            let view = ValuationRef::from_words(v.num_labels(), &copied);
            assert_eq!(view, v.view());
            assert_eq!(view.num_labels(), v.num_labels());
            let mut w = cer_common::wire::WireWriter::new();
            view.encode(&mut w);
            assert_eq!(w.into_bytes(), wire_bytes(&v));
            assert_eq!(format!("{view:?}"), format!("{v:?}"));
            assert_eq!(view.to_valuation(), v);
        }
    }

    /// An offset table that does not describe the words is refused
    /// before any group is sliced.
    #[test]
    fn from_words_rejects_what_is_not_an_offset_table() {
        let refused = |labels: usize, words: &[u64]| {
            std::panic::catch_unwind(|| ValuationRef::from_words(labels, words)).is_err()
        };
        assert!(!refused(2, &[3, 4, 7, 9]));
        assert!(refused(2, &[3]), "shorter than the table");
        assert!(refused(2, &[3, 5, 7, 9]), "last end past the words");
        assert!(refused(2, &[3, 3, 7, 9]), "last end short of the words");
        assert!(refused(2, &[4, 3, 7, 9]), "ends decreasing");
        assert!(refused(2, &[1, 3, 7]), "first group inside the table");
        assert!(refused(65, &[65; 65]), "more labels than a LabelSet holds");
    }

    #[test]
    #[should_panic(expected = "label index out of range")]
    fn get_rejects_a_label_outside_omega() {
        let v = Valuation::singleton(2, LabelSet::singleton(Label(1)), 7);
        // Unchecked, this would read position 7's slot as an offset.
        let _ = v.get(Label(2));
    }

    #[test]
    #[should_panic(expected = "label index out of range")]
    fn insert_rejects_a_label_outside_omega() {
        Valuation::empty(2).insert(LabelSet::singleton(Label(2)), 7);
    }

    #[test]
    #[should_panic(expected = "label index out of range")]
    fn remove_rejects_a_label_outside_omega() {
        Valuation::empty(2).remove(LabelSet::singleton(Label(5)), 7);
    }
}

/// `Valuation` against the obvious model — one `BTreeSet` per label —
/// under random operation sequences.
#[cfg(test)]
mod model_tests {
    use super::tests::{from_wire, wire_bytes};
    use super::*;
    use proptest::prelude::*;
    use std::collections::BTreeSet;
    use std::hash::{Hash, Hasher};

    type Model = Vec<BTreeSet<u64>>;

    /// `(kind, label bits, position)`; few positions, so that duplicate
    /// inserts, removals of absent positions and overlapping products
    /// all happen.
    type Op = (u8, u64, u64);

    fn ops() -> impl Strategy<Value = Vec<Op>> {
        proptest::collection::vec((0u8..4, 0u64..16, 0u64..12), 0..24)
    }

    /// The per-label lists of the layout this one replaced; their
    /// derived order is the order `Valuation` promises.
    fn lists(m: &Model) -> Vec<Vec<u64>> {
        m.iter().map(|s| s.iter().copied().collect()).collect()
    }

    fn agrees(v: &Valuation, m: &Model) {
        assert_eq!(v.num_labels(), m.len());
        for (l, set) in m.iter().enumerate() {
            let want: Vec<u64> = set.iter().copied().collect();
            assert_eq!(v.get(Label(l as u32)), want, "label {l}");
        }
        assert_eq!(v.weight(), m.iter().map(BTreeSet::len).sum::<usize>());
        assert_eq!(v.is_empty(), m.iter().all(BTreeSet::is_empty));
        assert_eq!(v.min_pos(), m.iter().flatten().min().copied());
        assert_eq!(v.max_pos(), m.iter().flatten().max().copied());
        let entries: Vec<(Label, u64)> = m
            .iter()
            .enumerate()
            .flat_map(|(l, set)| set.iter().map(move |&p| (Label(l as u32), p)))
            .collect();
        assert_eq!(v.entries().collect::<Vec<_>>(), entries);
    }

    /// Run `ops` over `n` labels on both sides, comparing after each.
    fn build(n: usize, ops: &[Op]) -> (Valuation, Model) {
        let mut v = Valuation::empty(n);
        let mut m: Model = vec![BTreeSet::new(); n];
        let mut earlier = (v.clone(), m.clone());
        for &(kind, bits, pos) in ops {
            let labels = LabelSet(bits & ((1 << n) - 1));
            match kind {
                0 => {
                    v.insert(labels, pos);
                    labels.iter().for_each(|l| {
                        m[l.index()].insert(pos);
                    });
                }
                1 => {
                    v.remove(labels, pos);
                    labels.iter().for_each(|l| {
                        m[l.index()].remove(&pos);
                    });
                }
                2 => {
                    let single = Valuation::singleton(n, labels, pos);
                    assert_eq!(single.weight(), labels.len());
                    v.product_assign(&single);
                    labels.iter().for_each(|l| {
                        m[l.index()].insert(pos);
                    });
                }
                _ => {
                    // Product with an earlier state of this very value.
                    assert_eq!(
                        v.simple_with(&earlier.0),
                        m.iter().zip(&earlier.1).all(|(a, b)| a.is_disjoint(b))
                    );
                    v.product_assign(&earlier.0);
                    m.iter_mut().zip(&earlier.1).for_each(|(a, b)| a.extend(b));
                    earlier = (v.clone(), m.clone());
                }
            }
            agrees(&v, &m);
        }
        (v, m)
    }

    fn hash_of(v: &Valuation) -> u64 {
        let mut h = std::collections::hash_map::DefaultHasher::new();
        v.hash(&mut h);
        h.finish()
    }

    proptest! {
        #![proptest_config(ProptestConfig { cases: 256, ..ProptestConfig::default() })]

        #[test]
        fn valuation_behaves_like_a_set_per_label(
            na in 1usize..5,
            nb in 1usize..5,
            ops_a in ops(),
            ops_b in ops(),
        ) {
            let (a, ma) = build(na, &ops_a);
            let (b, mb) = build(nb, &ops_b);
            // Equality, hashing and order are those of the sets.
            prop_assert_eq!(a == b, ma == mb);
            if a == b {
                prop_assert_eq!(hash_of(&a), hash_of(&b));
            }
            prop_assert_eq!(a.cmp(&b), lists(&ma).cmp(&lists(&mb)));
            prop_assert_eq!(a.partial_cmp(&b), Some(a.cmp(&b)));
            prop_assert_eq!(b.cmp(&a), a.cmp(&b).reverse());
            prop_assert_eq!(a.cmp(&b).is_eq(), a == b);
            // A clone is the value; the wire gives it back.
            prop_assert_eq!(&a.clone(), &a);
            let back = from_wire(&wire_bytes(&a)).unwrap();
            agrees(&back, &ma);
            prop_assert_eq!(back, a.clone());
            if na == nb {
                let disjoint = ma.iter().zip(&mb).all(|(x, y)| x.is_disjoint(y));
                prop_assert_eq!(a.simple_with(&b), disjoint);
                let union: Model = ma.iter().zip(&mb).map(|(x, y)| x | y).collect();
                agrees(&a.product(&b), &union);
                prop_assert_eq!(a.product(&b), b.product(&a));
            }
        }
    }
}
