"""TAGE direction predictor (Seznec & Michaud), the paper's Table I choice.

A base bimodal table plus N partially-tagged tables indexed by geometrically
increasing global-history lengths. This implementation follows the standard
formulation: longest-matching table provides the prediction; allocation on
mispredicts targets a longer-history table with a free useful counter;
useful bits age periodically. Sized to the paper's 8 KB budget by default
(4K-entry base + 4 x 1K-entry tagged tables, 8-bit tags).

Each tagged table ``t`` hashes three folds of its history window
``history & ((1 << L_t) - 1)`` (see :func:`_fold`): an index fold of
``index_bits`` bits and two tag folds of ``tag_bits`` and ``tag_bits - 1``
bits. The folds are kept incrementally, and packed: each kind of fold is
one integer with one lane per table (lane ``t`` at bit ``t * slot``), so a
global-history shift updates every table's fold of a kind with one lane-wise
rotate plus one XOR mask. The index lanes are ``index_bits`` wide; both tag
kinds use ``tag_bits``-bit slots, the second one only ``tag_bits - 1`` bits
of each, so ``tag0 ^ (tag1 << 1)`` is already every table's tag hash.

The engine drives the correct path through :meth:`TagePredictor.predict_update`
(one lookup, then train the provider/alternate entries in place) and the
wrong path through :meth:`TagePredictor.predict`, which never changes state.
"""

from __future__ import annotations

from .base import DirectionPredictor


def _fold(history: int, bits: int) -> int:
    """XOR-fold an arbitrary-width history integer into ``bits`` bits.

    Reference formulation: a table's fold lane always holds
    ``_fold(history & ((1 << L) - 1), bits)``, kept up to date one history
    bit at a time instead of re-walking the whole history every lookup.
    """
    mask = (1 << bits) - 1
    acc = 0
    while history:
        acc ^= history & mask
        history >>= bits
    return acc


class _FoldLanes:
    """Constants of one packed fold kind: ``width``-bit lanes in ``slot``-bit slots.

    Folding is GF(2)-linear per bit position: history bit ``p`` lands at
    lane position ``p % width``. Shifting a new bit into the history
    rotates every lane left by one, XORs the new bit in at position 0 and
    XORs the bit leaving table ``t``'s window out at ``L_t % width``.
    """

    __slots__ = ("width", "offsets", "hi", "lo", "mask")

    def __init__(self, width: int, slot: int, n_tables: int):
        self.width = width
        self.offsets = tuple(t * slot for t in range(n_tables))
        lane = (1 << width) - 1
        #: Lane bits that stay in their lane on ``<< 1`` (all but the top).
        self.hi = sum((lane & ~1) << o for o in self.offsets)
        #: Each lane's bit 0, where the rotate's wrapped-around bit lands.
        self.lo = sum(1 << o for o in self.offsets)
        self.mask = lane

    def shift_mask(self, bit: int, outs: list[int], lengths: tuple[int, ...]) -> int:
        """XOR mask for one shift: the new bit in, each lane's out bit out."""
        width = self.width
        mask = 0
        for o, out, length in zip(self.offsets, outs, lengths):
            mask ^= (bit << o) ^ (out << (o + length % width))
        return mask

    def lane(self, value: int, t: int) -> int:
        return (value >> self.offsets[t]) & self.mask


class TagePredictor(DirectionPredictor):
    """TAGE with a bimodal base and geometric-history tagged tables."""

    name = "tage"

    #: Clear all useful bits every this many updates (graceful aging).
    _USEFUL_RESET_PERIOD = 1 << 18

    __slots__ = (
        "base_entries",
        "table_entries",
        "tag_bits",
        "history_lengths",
        "index_bits",
        "base",
        "ctr",
        "tag",
        "useful",
        "history",
        "_base_mask",
        "_index_mask",
        "_tag_mask",
        "_plan",
        "_lanes",
        "_rotate",
        "_out_select",
        "_shift_masks",
        "_fold_index",
        "_fold_tag0",
        "_fold_tag1",
        "_max_hist_mask",
        "_updates",
        "_alloc_seed",
        "_memo",
    )

    def __init__(
        self,
        base_entries: int = 4096,
        table_entries: int = 1024,
        tag_bits: int = 8,
        history_lengths: tuple[int, ...] = (5, 15, 44, 130),
    ):
        if base_entries & (base_entries - 1):
            raise ValueError("base entries must be a power of two")
        if table_entries & (table_entries - 1):
            raise ValueError("table entries must be a power of two")
        if table_entries < 2 or tag_bits < 2:
            raise ValueError("tagged tables need >= 2 entries and >= 2 tag bits")
        if list(history_lengths) != sorted(set(history_lengths)):
            raise ValueError("history lengths must be strictly increasing")
        n = len(history_lengths)
        self.base_entries = base_entries
        self.table_entries = table_entries
        self.tag_bits = tag_bits
        self.history_lengths = tuple(history_lengths)
        self.index_bits = table_entries.bit_length() - 1
        self._base_mask = base_entries - 1
        self._index_mask = table_entries - 1
        self._tag_mask = (1 << tag_bits) - 1
        # Tables are only ever mutated in place (reset and aging included),
        # so the lookup plan may hold the tag lists themselves.
        self.base = [1] * base_entries                    # 2-bit, weakly not-taken
        self.ctr = [[3] * table_entries for _ in range(n)]  # 3-bit, >=4 taken
        self.tag = [[0] * table_entries for _ in range(n)]
        self.useful = [[0] * table_entries for _ in range(n)]  # 2-bit useful
        index = _FoldLanes(self.index_bits, self.index_bits, n)
        tag0 = _FoldLanes(tag_bits, tag_bits, n)
        tag1 = _FoldLanes(tag_bits - 1, tag_bits, n)
        self._lanes = (index, tag0, tag1)
        self._plan = tuple(zip(range(n), self.tag, index.offsets, tag0.offsets))
        self._rotate = (
            index.hi, index.width - 1, index.lo,
            tag0.hi, tag0.width - 1, tag0.lo,
            tag1.hi, tag1.width - 1, tag1.lo,
        )
        #: History bits that leave some table's window on the next shift.
        self._out_select = sum(1 << (length - 1) for length in history_lengths)
        #: ``(history & _out_select) << 1 | new_bit`` -> per-kind XOR masks,
        #: filled on first use (at most 2^(n+1) keys).
        self._shift_masks: dict[int, tuple[int, int, int]] = {}
        self._fold_index = 0
        self._fold_tag0 = 0
        self._fold_tag1 = 0
        self._max_hist_mask = (1 << history_lengths[-1]) - 1
        self.history = 0
        self._updates = 0
        self._alloc_seed = 0x9E3779B9      # deterministic pseudo-randomness
        # pc -> prediction, valid until the next update/reset(): tables and
        # history only change there, so a repeat wrong-path predict of the
        # same pc (walks re-probe loop blocks within one squash episode)
        # returns the same result without a lookup.
        self._memo: dict[int, bool] = {}

    # -- prediction ---------------------------------------------------------

    def _lookup(self, pc: int) -> tuple[int, int, int, int]:
        """``(provider, provider_idx, alt, alt_idx)`` for ``pc`` at the current history.

        The longest-history tag match is the provider and the next-longest
        the alternate; ``-1`` means no such table (the base predicts).
        """
        pc2 = pc >> 2
        pcx = pc2 ^ (pc2 >> self.index_bits)
        f_index = self._fold_index
        f_tag = self._fold_tag0 ^ (self._fold_tag1 << 1)
        imask = self._index_mask
        tmask = self._tag_mask
        provider = alt = p_idx = a_idx = -1
        for t, tags, i_off, t_off in self._plan:
            idx = (pcx ^ (f_index >> i_off)) & imask
            if tags[idx] == (pc2 ^ (f_tag >> t_off)) & tmask:
                alt = provider
                a_idx = p_idx
                provider = t
                p_idx = idx
        return provider, p_idx, alt, a_idx

    def predict(self, pc: int) -> bool:
        pred = self._memo.get(pc)
        if pred is None:
            provider, p_idx, alt, a_idx = self._lookup(pc)
            if provider < 0:
                pred = self.base[(pc >> 2) & self._base_mask] >= 2
            else:
                ctr = self.ctr[provider][p_idx]
                pred = ctr >= 4
                # "Use alt on newly allocated": a weak, never-proven-useful
                # provider entry is likely fresh noise — trust the alternate.
                if self.useful[provider][p_idx] == 0 and (ctr == 3 or ctr == 4):
                    pred = (
                        self.ctr[alt][a_idx] >= 4
                        if alt >= 0
                        else self.base[(pc >> 2) & self._base_mask] >= 2
                    )
            self._memo[pc] = pred
        return pred

    # -- training -----------------------------------------------------------

    def update(self, pc: int, taken: bool) -> None:
        self.predict_update(pc, taken)

    def predict_update(self, pc: int, taken: bool) -> bool:
        """Predict ``pc`` at the current state, then train with ``taken``.

        Returns exactly what :meth:`predict` would have, and leaves the
        same state as ``predict`` followed by ``update``.
        """
        self._memo.clear()
        provider, p_idx, alt, a_idx = self._lookup(pc)
        if provider >= 0:
            ctrs = self.ctr[provider]
            ctr = ctrs[p_idx]
            provider_pred = ctr >= 4
            if alt >= 0:
                alt_pred = self.ctr[alt][a_idx] >= 4
            else:
                alt_pred = self.base[(pc >> 2) & self._base_mask] >= 2
            usefuls = self.useful[provider]
            u = usefuls[p_idx]
            pred = alt_pred if u == 0 and (ctr == 3 or ctr == 4) else provider_pred
            if taken:
                if ctr < 7:
                    ctrs[p_idx] = ctr + 1
            elif ctr > 0:
                ctrs[p_idx] = ctr - 1
            # Useful counter: provider was useful iff it disagreed with the
            # alternate and was right (harmful if it was wrong).
            if provider_pred != alt_pred:
                if provider_pred == taken:
                    if u < 3:
                        usefuls[p_idx] = u + 1
                elif u > 0:
                    usefuls[p_idx] = u - 1
        else:
            base = self.base
            bidx = (pc >> 2) & self._base_mask
            ctr = base[bidx]
            pred = ctr >= 2
            if taken:
                if ctr < 3:
                    base[bidx] = ctr + 1
            elif ctr > 0:
                base[bidx] = ctr - 1

        # Allocate a longer-history entry on a mispredict.
        if pred != taken and provider < len(self._plan) - 1:
            self._allocate(pc, provider, taken)

        self._updates += 1
        if self._updates % self._USEFUL_RESET_PERIOD == 0:
            for usefuls in self.useful:
                usefuls[:] = [0] * len(usefuls)

        # One global-history shift: rotate each fold kind's lanes, then XOR
        # in the new bit and out the bits leaving each table's window.
        bit = 1 if taken else 0
        history = self.history
        key = ((history & self._out_select) << 1) | bit
        masks = self._shift_masks.get(key)
        if masks is None:
            masks = self._shift_masks_for(key)
        m_index, m_tag0, m_tag1 = masks
        hi_i, rot_i, lo_i, hi_0, rot_0, lo_0, hi_1, rot_1, lo_1 = self._rotate
        v = self._fold_index
        self._fold_index = (((v << 1) & hi_i) | ((v >> rot_i) & lo_i)) ^ m_index
        v = self._fold_tag0
        self._fold_tag0 = (((v << 1) & hi_0) | ((v >> rot_0) & lo_0)) ^ m_tag0
        v = self._fold_tag1
        self._fold_tag1 = (((v << 1) & hi_1) | ((v >> rot_1) & lo_1)) ^ m_tag1
        self.history = ((history << 1) | bit) & self._max_hist_mask
        return pred

    def _shift_masks_for(self, key: int) -> tuple[int, int, int]:
        bit = key & 1
        lengths = self.history_lengths
        outs = [(key >> length) & 1 for length in lengths]  # bit L-1, key << 1
        masks = (
            self._lanes[0].shift_mask(bit, outs, lengths),
            self._lanes[1].shift_mask(bit, outs, lengths),
            self._lanes[2].shift_mask(bit, outs, lengths),
        )
        self._shift_masks[key] = masks
        return masks

    def _allocate(self, pc: int, provider: int, taken: bool) -> None:
        useful = self.useful
        n = len(useful)
        pc2 = pc >> 2
        pcx = pc2 ^ (pc2 >> self.index_bits)
        index, tag0, tag1 = self._lanes
        indices = [-1] * n
        for t in range(provider + 1, n):
            indices[t] = (pcx ^ index.lane(self._fold_index, t)) & self._index_mask
        candidates = [t for t in range(provider + 1, n) if useful[t][indices[t]] == 0]
        if not candidates:
            # Nothing free: age the candidates instead of allocating.
            for t in range(provider + 1, n):
                idx = indices[t]
                if useful[t][idx] > 0:
                    useful[t][idx] -= 1
            return
        # Prefer shorter history (standard TAGE bias: pick the first free
        # table with probability 1/2, else the next).
        self._alloc_seed = (self._alloc_seed * 1103515245 + 12345) & 0xFFFFFFFF
        pick = candidates[0]
        if len(candidates) > 1 and (self._alloc_seed >> 16) & 1:
            pick = candidates[1]
        idx = indices[pick]
        self.tag[pick][idx] = (
            pc2 ^ tag0.lane(self._fold_tag0, pick) ^ (tag1.lane(self._fold_tag1, pick) << 1)
        ) & self._tag_mask
        self.ctr[pick][idx] = 4 if taken else 3
        useful[pick][idx] = 0

    # -- accounting ---------------------------------------------------------

    def storage_bits(self) -> int:
        bits = 2 * self.base_entries
        entry_bits = 3 + self.tag_bits + 2
        bits += entry_bits * self.table_entries * len(self.history_lengths)
        bits += self.history_lengths[-1]  # global history register
        return bits

    def reset(self) -> None:
        self.base[:] = [1] * self.base_entries
        for ctrs, tags, usefuls in zip(self.ctr, self.tag, self.useful):
            ctrs[:] = [3] * self.table_entries
            tags[:] = [0] * self.table_entries
            usefuls[:] = [0] * self.table_entries
        self._fold_index = 0
        self._fold_tag0 = 0
        self._fold_tag1 = 0
        self.history = 0
        self._updates = 0
        self._memo.clear()
