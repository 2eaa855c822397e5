"""k-mismatch LCS for constant k.

The driver doubles a length guess ell over [max(1, lcs), (k+1) lcs + k]; each
guess builds anchor sets (synchronizing positions plus misperiod-aligned
positions of highly periodic runs) and evaluates, over the anchored family of
(reversed-prefix, forward-window) pairs,

    max over k' of maxPairLCP_{k', k-k'}(U, V).

maxPairLCP_{k1,k2} reduces to plain maxPairLCP instances over families of
modified strings (a source fragment plus up to k substitutions).  A modified
string is compared by its packed key: the source fragment's
text_core.pack_keys column with each substitution written into its symbol
slot, so one key sort orders a set and the XOR of neighbouring keys gives
its adjacent LCPs.  A k-complete family is generated level by level, guided
by the heavy-light decomposition of the compacted tries of the sets it cuts;
pairs of complete families form a bicomplete family via a budgeted batch
product; delta-subset groups with modification budgets remove
double-counted mismatches; per batch the sets are merged under length-1
edges, ordered by (set, packed key), and solved with the general solver.

The legs pack each anchor's ell-capped reversed prefix, from (S$T)^R, and
forward window, from S$T; text_core.mismatch_offsets reads lcp_k' off the
XOR of two keys for the brute leg and the family leg's witness shift, so
klcs builds no suffix index beyond its lcs call.

Every reported sum is realized by a genuine pair of substrings at Hamming
distance <= k, so legs never overreport and the maximum over the schedule is
exact.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .text_core import PackedLcsError, _sort_keys, mismatch_offsets, pack_keys, symbol_bits
from .suffix_index import build_compacted_trie
from .sync_runs import build_sync_set, find_tau_runs, misperiods
from .family_lcp import TwoFamiliesInstance, _RankLcp, max_pair_lcp_general
from .lcs_engine import _Ctx, _sorted_trie, lcs


K_CAP = 4

# Testing hook: skip the leg cost dispatch and always run the family
# machinery on non-degenerate legs.
FORCE_FAMILY_LEGS = False


@dataclass
class FamilyCounters:
    family_total: int = 0  # total modified pairs across all product sets
    per_set_per_source_max: int = 0
    light_ancestors_max: int = 0
    batch_peak: int = 0  # largest in-flight accumulator (entries or products)
    batch_slack: int = 0  # largest single-set addition (allowed overshoot)
    batch_budget: int = 0
    batches: int = 0
    solver_calls: int = 0

    def merge(self, other):
        self.family_total += other.family_total
        self.per_set_per_source_max = max(
            self.per_set_per_source_max, other.per_set_per_source_max
        )
        self.light_ancestors_max = max(
            self.light_ancestors_max, other.light_ancestors_max
        )
        self.batch_peak = max(self.batch_peak, other.batch_peak)
        self.batch_slack = max(self.batch_slack, other.batch_slack)
        self.batch_budget = max(self.batch_budget, other.batch_budget)
        self.batches += other.batches
        self.solver_calls += other.solver_calls


@dataclass
class KPairResult:
    value: int
    witness: tuple | None  # (index into U family, index into V family)
    counters: FamilyCounters = field(default_factory=FamilyCounters)


def _letter(codes, start, delta, pos):
    for p, c in delta:
        if p == pos:
            return c
    return int(codes[start + pos - 1])


def lcp_k(u, v, k):
    """Longest prefix-pair length of two strings at Hamming distance <= k."""
    if k < 0:
        raise PackedLcsError("k must be >= 0")
    a = u.encode() if isinstance(u, str) else bytes(u)
    b = v.encode() if isinstance(v, str) else bytes(v)
    mism = 0
    out = 0
    for x, y in zip(a, b):
        if x != y:
            mism += 1
            if mism > k:
                break
        out += 1
    return out


def is_maxpair(u, v, k, delta, nabla):
    """Check the (U,V)_k-maxpair conditions for modified strings over plain
    strings u, v with (1-based position, letter) substitution sets."""
    a = u.encode() if isinstance(u, str) else bytes(u)
    b = v.encode() if isinstance(v, str) else bytes(v)
    dd, nn = dict(delta), dict(nabla)
    lim = lcp_k(a, b, k)

    def mod(base, subs, i):
        return subs.get(i, base[i - 1] if i <= len(base) else None)

    for i in range(1, max(len(a), len(b)) + 1):
        ua = mod(a, dd, i)
        vb = mod(b, nn, i)
        if i <= lim and i <= min(len(a), len(b)) and a[i - 1] != b[i - 1]:
            if ua != vb:
                return False
        else:
            if i <= len(a) and ua != a[i - 1]:
                return False
            if i <= len(b) and vb != b[i - 1]:
                return False
    return True


class _CompleteFamily:
    """Streamed k-complete family over source fragments of one text.

    A set is a list of (src, delta) entries: a fragment index and a sorted
    tuple of (1-based position, letter) substitutions.  The fragments are
    packed once; a modified string's key is its fragment's key with the
    substitutions written in.  pack_keys needs codes >= 0, so keys hold codes
    shifted to start at 0, which keeps order and equality, while deltas keep
    the text's own letters.
    """

    def __init__(self, codes, fragments, k, counters):
        self.codes = codes
        self.fragments = fragments  # list of (start0, length)
        self.k = k
        self.counters = counters
        self.lens = np.array([f[1] for f in fragments], dtype=np.int64)
        self.lo = int(codes.min()) if len(codes) else 0
        shifted = codes - self.lo
        self.bits = symbol_bits(shifted)
        starts0 = np.array([f[0] for f in fragments], dtype=np.int64)
        self.keys = pack_keys(shifted, starts0, self.lens, int(self.lens.max(initial=0)))

    def sets(self):
        """Yield the family's sets, unsorted."""
        yield from self._levels([(i, ()) for i in range(len(self.fragments))], self.k)

    def _levels(self, entries, d):
        if d == 0:
            yield entries
            return
        for child_entries in self._split(entries, *self._sort_set(entries)):
            yield from self._levels(child_entries, d - 1)

    def keys_of(self, src, deltas):
        """Packed keys of the modified strings (src[i], deltas[i])."""
        keys = self.keys[:, src]
        per = 64 // self.bits
        slot = np.uint64((1 << self.bits) - 1)
        for step in range(max(map(len, deltas), default=0)):
            # One substitution per string and step, so two in one word both land.
            rows = np.array([r for r, d in enumerate(deltas) if len(d) > step])
            pos, letter = np.array([deltas[r][step] for r in rows]).T
            word, at = np.divmod(pos - 1, per)
            shift = (self.bits * (per - 1 - at)).astype(np.uint64)
            code = (letter - self.lo + 1).astype(np.uint64)  # a slot holds code + 1
            keys[word, rows] = (keys[word, rows] & ~(slot << shift)) | (code << shift)
        return keys

    def _sort_set(self, entries):
        """(order, adjacent LCPs) of a set's modified strings: one key sort."""
        src = [e[0] for e in entries]
        keys = self.keys_of(src, [e[1] for e in entries])
        return _sort_keys(keys, self.lens[src], self.bits)

    def _frag(self, entry):
        return self.fragments[entry[0]]

    # -- heavy-light split ------------------------------------------------

    def _split(self, entries, order, lcps):
        if not entries:
            return
        lens = [self._frag(entries[i])[1] for i in order]
        trie = build_compacted_trie(lens, lcps)
        on, parent, end = trie.leaf_of_input, trie.parent, trie.subtree_end
        nc = trie.node_count()
        ids = np.arange(nc)
        # Ids are in preorder and entries sit on nodes in sorted order, so the
        # entries below v are those at sorted positions [below[v], below[end[v]]).
        below = np.zeros(nc + 1, dtype=np.int64)
        np.cumsum(np.bincount(on, minlength=nc), out=below[1:])
        leaf_count = below[end] - below[:-1]
        # Heavy child: the first child with the most entries below it.
        most = np.zeros(nc, dtype=np.int64)
        np.maximum.at(most, parent[1:], leaf_count[1:])
        tops = ids[1:][leaf_count[1:] == most[parent[1:]]]
        heavy = np.full(nc, nc)
        np.minimum.at(heavy, parent[tops], tops)
        light = np.ones(nc, dtype=bool)
        light[heavy[heavy < nc]] = False
        light_nodes = ids[light]

        def ancestors(mask):
            # Nodes of mask on the path from the root to every node.
            return np.cumsum(
                np.bincount(ids[mask], minlength=nc + 1)
                - np.bincount(end[mask], minlength=nc + 1)
            )[:nc]

        # Light-ancestor instrumentation: every leaf has at most
        # min(node height, ceil(log2 leaves)) + 1 light ancestors.
        log_bound = max(0, math.ceil(math.log2(len(entries)))) + 1
        cnt = ancestors(light)[on]
        if (cnt > np.minimum(ancestors(np.ones(nc, dtype=bool))[on], log_bound)).any():
            raise PackedLcsError("internal: heavy-light ancestor bound broken")
        self.counters.light_ancestors_max = max(
            self.counters.light_ancestors_max, int(cnt.max())
        )
        # h(w): deepest leaf on w's heavy path; its first entry gives its string.
        hw = np.where(heavy < nc, heavy, ids)
        while True:
            nxt = hw[hw]
            if np.array_equal(nxt, hw):
                break
            hw = nxt
        hw = hw[light_nodes]
        # The light nodes' position ranges, concatenated, and the LCP of each
        # entry there with h(w), from the leaf-rank LCP table.
        size = below[end[light_nodes]] - below[light_nodes]
        stop = np.cumsum(size)
        pos = np.repeat(below[light_nodes] - (stop - size), size) + np.arange(stop[-1])
        ells = _RankLcp(trie).lcp_many(
            trie.leaf_rank[on[pos]], trie.leaf_rank[np.repeat(hw, size)]
        ).tolist()
        sub, pivots, stop = order[pos].tolist(), order[below[hw]].tolist(), stop.tolist()
        for pivot, a, b in zip(pivots, [0] + stop[:-1], stop):
            pivot_entry = entries[pivot]
            pl = self._frag(pivot_entry)[1]
            child = []
            per_source = {}
            for ei, ell in zip(sub[a:b], ells[a:b]):
                src, delta = entries[ei]
                if delta and max(p for p, _ in delta) > ell:
                    continue
                child.append((src, delta))
                per_source[src] = per_source.get(src, 0) + 1
                flen = self._frag(entries[ei])[1]
                if flen > ell and pl > ell:
                    c = _letter(self.codes, self._frag(pivot_entry)[0], pivot_entry[1], ell + 1)
                    child.append((src, tuple(sorted(delta + ((ell + 1, c),)))))
                    per_source[src] = per_source[src] + 1
            if per_source:
                self.counters.per_set_per_source_max = max(
                    self.counters.per_set_per_source_max, max(per_source.values())
                )
            if child:
                yield child


def _families(codes1, codes2, pairs, k1, k2, counters):
    """The complete families of the pairs' first fragments, of codes1, and
    second fragments, of codes2."""
    return (
        _CompleteFamily(codes1, [p[0] for p in pairs], k1, counters),
        _CompleteFamily(codes2, [p[1] for p in pairs], k2, counters),
    )


def _bicomplete_batches(fam1, fam2, counters):
    """Stream the (k1,k2)-bicomplete family of the pairs whose fragments
    fam1 and fam2 hold, in budgeted batches.

    Yields lists of product sets; a product set is a list of
    (pair_idx, delta1, delta2) triples sharing one (set1, set2) origin.
    The budget is the two texts' lengths plus the pair count.
    """
    budget = len(fam1.codes) + len(fam2.codes) + len(fam1.fragments)
    counters.batch_budget = budget

    def flush_product(by_src):
        # One batch of F1 entries: run the full F2 stream against it.
        products = []
        for set2, entries2 in enumerate(fam2.sets()):
            before = len(products)
            for src, d2 in entries2:
                for d1, set1 in by_src.get(src, ()):
                    products.append((src, d1, set1, d2, set2))
            counters.batch_slack = max(counters.batch_slack, len(products) - before)
            counters.batch_peak = max(counters.batch_peak, len(products))
            if len(products) >= budget:
                yield _group_products(products)
                products = []
        if products:
            yield _group_products(products)

    by_src, total = {}, 0
    for set1, entries1 in enumerate(fam1.sets()):
        for src, d1 in entries1:
            by_src.setdefault(src, []).append((d1, set1))
        counters.batch_slack = max(counters.batch_slack, len(entries1))
        total += len(entries1)
        counters.batch_peak = max(counters.batch_peak, total)
        if total >= budget:
            counters.batches += 1
            yield from flush_product(by_src)
            by_src, total = {}, 0
    if total:
        counters.batches += 1
        yield from flush_product(by_src)


def _group_products(products):
    groups = {}
    for src, d1, set1, d2, set2 in products:
        groups.setdefault((set1, set2), []).append((src, d1, d2))
    return list(groups.values())


def max_pair_lcp_k(text, u_pairs, v_pairs, k1, k2, ell):
    """maxPairLCP_{k1,k2} of two families of fragment pairs of one text.

    text: code array or bytes/str; fragment pairs are ((start, len), (start,
    len)) with 1-based starts.  Returns KPairResult with instrumentation.
    """
    codes = _as_codes(text)
    return _max_pair_lcp_k(codes, codes, u_pairs, v_pairs, k1, k2, ell)


def _max_pair_lcp_k(codes1, codes2, u_pairs, v_pairs, k1, k2, ell):
    """max_pair_lcp_k with first fragments in codes1 and second in codes2."""
    if k1 < 0 or k2 < 0:
        raise PackedLcsError(f"need k1, k2 >= 0, got {k1}, {k2}")
    counters = FamilyCounters()
    if not u_pairs or not v_pairs:
        return KPairResult(0, None, counters)
    pairs = _zero_based(codes1, codes2, [*u_pairs, *v_pairs])
    if any(l > ell for pair in pairs for _, l in pair):
        raise PackedLcsError("fragment exceeds the (ell, ell) bound")
    n_u = len(u_pairs)
    origins = [0] * n_u + [1] * len(v_pairs)
    fam1, fam2 = _families(codes1, codes2, pairs, k1, k2, counters)

    best_val, best_wit = -1, None
    pool, pool_size = [], 0

    def flush_pool():
        nonlocal best_val, best_wit, pool, pool_size
        if not pool:
            return
        val, wit = _solve_merged(fam1, fam2, pool, counters)
        if wit is not None and val > best_val:
            best_val, best_wit = val, wit
        pool, pool_size = [], 0

    for batch in _bicomplete_batches(fam1, fam2, counters):
        for gset in batch:
            counters.family_total += len(gset)
            for u_set, v_set in _delta_subset_groups(gset, origins, k1, k2):
                pool.append((u_set, v_set))
                pool_size += len(u_set) + len(v_set)
                if pool_size >= len(pairs):
                    flush_pool()
    flush_pool()
    # The root's child set keeps every unmodified entry at each level, so
    # some pool holds every unmodified U and V pair, which score at least 2.
    if best_wit is None:
        raise PackedLcsError("internal: no merged solve found a U-V pair")
    return KPairResult(best_val, (best_wit[0], best_wit[1] - n_u), counters)


def _as_codes(text):
    if isinstance(text, (str, bytes, bytearray)):
        raw = text.encode() if isinstance(text, str) else bytes(text)
        return np.frombuffer(raw, dtype=np.uint8).astype(np.int64)
    return np.asarray(text, dtype=np.int64)


def _check_frag(codes, start, length):
    if not (1 <= start and start + length - 1 <= len(codes) and length >= 0):
        raise PackedLcsError(f"fragment ({start}, {length}) out of range")


def _zero_based(codes1, codes2, pairs):
    """Checked fragment pairs, first in codes1 and second in codes2, with
    0-based starts."""
    out = []
    for (s1, l1), (s2, l2) in pairs:
        _check_frag(codes1, s1, l1)
        _check_frag(codes2, s2, l2)
        out.append(((s1 - 1, l1), (s2 - 1, l2)))
    return out


def _delta_subset_groups(gset, origins, k1, k2):
    """delta-subset grouping with modification budgets d1, d2."""
    subgroups = {}
    for t in gset:
        _pair_idx, d1, d2 = t
        for m1 in range(1 << len(d1)):
            sub1 = tuple(d1[b] for b in range(len(d1)) if (m1 >> b) & 1)
            for m2 in range(1 << len(d2)):
                sub2 = tuple(d2[b] for b in range(len(d2)) if (m2 >> b) & 1)
                subgroups.setdefault((sub1, sub2), []).append(t)
    for (sub1, sub2), members in subgroups.items():
        for bd1 in range(k1 + 1):
            for bd2 in range(k2 + 1):
                u_set = [
                    t for t in members
                    if origins[t[0]] == 0 and len(t[1]) <= bd1 and len(t[2]) <= bd2
                ]
                v_set = [
                    t for t in members
                    if origins[t[0]] == 1
                    and len(t[1]) <= k1 + len(sub1) - bd1
                    and len(t[2]) <= k2 + len(sub2) - bd2
                ]
                if u_set and v_set:
                    yield u_set, v_set


def _solve_merged(fam1, fam2, pool, counters):
    """Merge the pooled (U', V') sets under length-1 edges and solve once.

    The artificial length-1 edge letters are the pool indices j, so each side
    sorts by (j, packed key of its modified string), with LCP 0 across sets
    and 1 + the key LCP inside one."""
    counters.solver_calls += 1
    elems = [
        (j, tag, t) for j, sets in enumerate(pool) for tag, side in enumerate(sets) for t in side
    ]
    j = np.array([e[0] for e in elems])
    in_q = np.array([e[1] for e in elems], dtype=bool)
    pair_of = np.array([e[2][0] for e in elems])

    def build_side(fam, coord):
        lens = fam.lens[pair_of]
        keys = fam.keys_of(pair_of, [e[2][coord] for e in elems])
        order, lcps = _sort_keys(keys, lens, fam.bits, major=j)
        jo = j[order]
        return _sorted_trie(order, lens[order] + 1, np.where(jo[:-1] == jo[1:], lcps + 1, 0))

    trie1, leaf1 = build_side(fam1, 1)
    trie2, leaf2 = build_side(fam2, 2)
    both = np.stack([leaf1, leaf2], axis=1)
    res = max_pair_lcp_general(TwoFamiliesInstance(trie1, trie2, both[~in_q], both[in_q]))
    if res.witness is None or res.value < 2:
        return 0, None
    pi, qi = res.witness
    return res.value - 2, (int(pair_of[~in_q][pi]), int(pair_of[in_q][qi]))


def build_complete_family(text, fragments, k):
    """Stream the sets of a k-complete family for text fragments.

    fragments: list of (start, length) with 1-based starts.  Yields one list
    per set, lexicographically sorted, of (fragment_index, delta) entries.
    """
    codes = _as_codes(text)
    frags0 = []
    for s, l in fragments:
        _check_frag(codes, s, l)
        frags0.append((s - 1, l))
    fam = _CompleteFamily(codes, frags0, k, FamilyCounters())
    for entries in fam.sets():
        order, _lcps = fam._sort_set(entries)
        yield [entries[i] for i in order]


def build_bicomplete_family(text, pairs, k1, k2, counters=None):
    """Stream batches of the (k1,k2)-bicomplete family of fragment pairs.

    pairs: ((start, len), (start, len)) with 1-based starts.  Yields batches;
    each batch is a list of sets; each set is a list of
    (pair_index, delta1, delta2) triples.
    """
    codes = _as_codes(text)
    counters = FamilyCounters() if counters is None else counters
    fam1, fam2 = _families(codes, codes, _zero_based(codes, codes, pairs), k1, k2, counters)
    yield from _bicomplete_batches(fam1, fam2, counters)


# -- anchors -----------------------------------------------------------------


def _y_codes(ctx):
    """#S$T with two distinct below-letter sentinels.  A run from S's first
    symbol needs a left misperiod for its aligned anchors, and # gives one,
    as $ does for T (over plain S$T, klcs(c^77 acc, c^116, 1) finds 77, not 80)."""
    return np.concatenate([[0], ctx.st_codes() + 1])


def klcs_anchors(s, t, ell, k):
    """Anchor sets (A_S, A_T) of 1-based positions; for any pair of
    substrings at Hamming distance <= k with length in (ell/2, ell], some
    common shift lands in both sets.  Degenerate small ell yields all
    positions (exact dense mode)."""
    ctx = s if isinstance(s, _Ctx) else _Ctx(s, t)
    if ell < 1 or k < 0:
        raise PackedLcsError("need ell >= 1 and k >= 0")
    a_s, a_t, _dense = _klcs_anchor_sets(ctx, ell, k)
    return a_s, a_t


def _klcs_anchor_sets(ctx, ell, k):
    tau = ell // (6 * (k + 1))
    y = _y_codes(ctx)
    if tau < 3 or tau > len(y) // 2:
        return (
            np.arange(1, ctx.ns + 1, dtype=np.int64),
            np.arange(1, ctx.nt + 1, dtype=np.int64),
            True,
        )
    positions = set(int(p) for p in build_sync_set(y, tau).positions)
    runs = find_tau_runs(y, tau)
    for start, p, q in zip(runs.start.tolist(), runs.period.tolist(), runs.lyndon_start.tolist()):
        mp = misperiods(y, start, start + p, k + 1)
        for x in mp.left:
            r = q % p
            first = x + 1 + ((r - (x + 1)) % p)
            for a in (first, first + p):
                if a <= len(y):
                    positions.add(a)
        for a in mp.left + mp.right:
            positions.add(a)
    a_s = sorted(a - 1 for a in positions if 2 <= a <= ctx.ns + 1)
    a_t = sorted(a - ctx.ns - 2 for a in positions if ctx.ns + 3 <= a <= len(y))
    return (
        np.array(a_s, dtype=np.int64),
        np.array(a_t, dtype=np.int64),
        False,
    )


# -- driver ------------------------------------------------------------------


@dataclass
class KlcsResult:
    length: int
    pos_s: int
    pos_t: int
    mismatches: tuple  # 1-based offsets within the witness
    counters: FamilyCounters = field(default_factory=FamilyCounters)


_BRUTE_CHUNK = 1 << 16  # key words per chunk of anchor pairs


def _brute_pairs_leg(ctx, pos_s, pos_t, ell, k):
    """Brute maxPairLCP over the cross product of anchor positions with
    ell-capped extensions.  Each anchor's backward fragment, from (S$T)^R,
    and forward fragment, from S$T, is packed once; a pair's lcp_k' for
    every k' <= k is read off the XOR of its keys, in chunks of pairs."""
    st = ctx.st_codes()
    bits, n_s, n_t = symbol_bits(st), len(pos_s), len(pos_t)
    back0 = np.concatenate(ctx.back_starts(pos_s, pos_t))
    before = np.concatenate([pos_s, pos_t]) - 1
    after = np.concatenate([ctx.ns + 1 - pos_s, ctx.nt + 1 - pos_t])
    sides = []  # (keys, lens) of the backward, then the forward fragments
    for codes, starts0, lens in ((st[::-1], back0, before), (st, st.size - back0, after)):
        lens = np.minimum(lens, ell)
        sides.append((pack_keys(codes, starts0, lens, ell), lens))

    def lcp_ks(keys, lens, i):
        # (k + 1, len(i) * n_t) capped lcp_k' of S anchors i by every T anchor.
        x = (keys[:, i, None] ^ keys[:, None, n_s:]).reshape(len(keys), -1)
        cap = np.minimum.outer(lens[i], lens[n_s:]).ravel()
        return np.minimum(mismatch_offsets(x, bits, k), cap)

    best = (0, 1, 1)
    rows = max(1, _BRUTE_CHUNK // (n_t * sides[0][0].shape[0]))
    for lo in range(0, n_s, rows):
        i = np.arange(lo, min(lo + rows, n_s))
        backs, fwds = (lcp_ks(*side, i) for side in sides)
        for kk in range(k + 1):
            val = backs[kk] + fwds[k - kk]
            r = int(np.argmax(val))
            if val[r] > best[0]:
                lam = int(backs[kk, r])
                best = (int(val[r]), int(pos_s[lo + r // n_t]) - lam, int(pos_t[r % n_t]) - lam)
    return best


def _family_leg(ctx, a_s, a_t, ell, k, counters):
    """The family leg: each anchor's pair (reversed prefix before it, in
    (S$T)^R; suffix from it, in S$T), ell-capped, for every split of k."""
    rev_s0, rev_t0 = ctx.back_starts(a_s, a_t)

    def fam(points, rev0, fwd0, n_len):
        back = np.minimum(ell, points - 1).tolist()
        fwd = np.minimum(ell, n_len - points + 1).tolist()
        return list(zip(zip((rev0 + 1).tolist(), back), zip((fwd0 + 1).tolist(), fwd)))

    u_pairs = fam(a_s, rev_s0, a_s - 1, ctx.ns)
    v_pairs = fam(a_t, rev_t0, ctx.ns + a_t, ctx.nt)
    st = ctx.st_codes()
    best = None
    for kk in range(k + 1):
        res = _max_pair_lcp_k(st[::-1], st, u_pairs, v_pairs, kk, k - kk, ell)
        counters.merge(res.counters)
        if res.witness is not None and (best is None or res.value > best[0]):
            ui, vi = res.witness
            (r1, l1), _ = u_pairs[ui]
            (r2, l2), _ = v_pairs[vi]
            # The witness shift: the pair's backward lcp_kk.
            key = pack_keys(st[::-1], np.array([r1 - 1, r2 - 1]), np.array([l1, l2]), ell)
            lam = mismatch_offsets(key[:, :1] ^ key[:, 1:], symbol_bits(st), kk)[kk, 0]
            lam = min(int(lam), l1, l2)
            best = (res.value, int(a_s[ui]) - lam, int(a_t[vi]) - lam)
    return best


def klcs(s, t, k):
    """Exact k-mismatch LCS with witness positions and mismatch offsets.  s
    may instead be a _Ctx, as for lcs; t is then unused."""
    if not 0 <= k <= K_CAP:
        raise PackedLcsError(
            f"k={k} exceeds the supported cap {K_CAP}; use oracles.klcs_dp"
        )
    ctx = s if isinstance(s, _Ctx) else _Ctx(s, t)
    base = lcs(ctx, t)
    counters = FamilyCounters()
    if ctx.ns == 0 or ctx.nt == 0:
        return KlcsResult(0, 1, 1, (), counters)
    if k == 0:
        return KlcsResult(base.length, base.pos_s, base.pos_t, (), counters)
    d = base.length
    lo = max(1, d)
    hi = min((k + 1) * d + k, min(ctx.ns, ctx.nt))
    ells = [lo]
    while ells[-1] < hi:
        ells.append(ells[-1] * 2)
    best = (d, base.pos_s, base.pos_t)
    dense_done = False
    for ell in ells:
        a_s, a_t, dense = _klcs_anchor_sets(ctx, ell, k)
        if dense or len(a_s) == 0 or len(a_t) == 0:
            if dense_done:
                continue
            cand = _brute_pairs_leg(
                ctx,
                np.arange(1, ctx.ns + 1, dtype=np.int64),
                np.arange(1, ctx.nt + 1, dtype=np.int64),
                min(ells[-1], ctx.ns, ctx.nt),
                k,
            )
            dense_done = True
        else:
            # Cost dispatch: the modified-string machinery wins once the
            # family blowup N (2 min(ell, log N))^k undercuts the quadratic
            # anchored brute; at desk sizes with k large the brute evaluation
            # of the same leg value is the faster exact route.
            n_anch = len(a_s) + len(a_t)
            log_n = max(1, math.ceil(math.log2(max(2, n_anch))))
            est_family = n_anch * (2 * min(ell, log_n)) ** k
            if not FORCE_FAMILY_LEGS and est_family * 4 > ctx.ns * ctx.nt:
                cand = _brute_pairs_leg(ctx, a_s, a_t, ell, k)
            else:
                cand = _family_leg(ctx, a_s, a_t, ell, k, counters)
        if cand is not None and cand[0] > best[0]:
            best = cand
    length, ps, pt = best
    mism = tuple(
        off + 1
        for off in range(length)
        if ctx.s_codes[ps - 1 + off] != ctx.t_codes[pt - 1 + off]
    )
    if len(mism) > k:
        raise PackedLcsError("internal: witness exceeds the mismatch budget")
    return KlcsResult(length, ps, pt, mism, counters)
