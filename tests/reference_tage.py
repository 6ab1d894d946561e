"""Reference TAGE predictor: one folded-history register object per fold (test oracle only).

This is the register-object :class:`TagePredictor` the simulator used
before its folds were packed into lanes, kept line for line so the
production :class:`repro.branch.predictors.tage.TagePredictor` can be
checked against it — predictions, global history and every table — over
generated geometries and call sequences (``tests/test_tage.py``).
"""

from __future__ import annotations

from repro.branch.predictors.base import DirectionPredictor


class _FoldedRegister:
    """Circular shift register holding ``_fold(history & mask, bits)``.

    Folding is GF(2)-linear per bit position: history bit ``p`` contributes
    at folded position ``p % bits``. Shifting a new bit into the history
    therefore rotates the folded value left by one, XORs the new bit in at
    position 0, and XORs the outgoing bit (the one leaving the table's
    history window) out at position ``history_length % bits``.
    """

    __slots__ = ("value", "_bits", "_mask", "_out_pos")

    def __init__(self, history_length: int, bits: int):
        self.value = 0
        self._bits = bits
        self._mask = (1 << bits) - 1
        self._out_pos = history_length % bits

    def shift(self, new_bit: int, out_bit: int) -> None:
        v = self.value
        v = ((v << 1) | (v >> (self._bits - 1))) & self._mask  # rotate left
        self.value = v ^ new_bit ^ (out_bit << self._out_pos)

    def reset(self) -> None:
        self.value = 0


class _TaggedTable:
    """One tagged TAGE component."""

    __slots__ = ("history_length", "index_bits", "tag_bits", "ctr", "tag", "useful",
                 "_index_mask", "_tag_mask", "_hist_mask",
                 "_f_index", "_f_tag0", "_f_tag1")

    def __init__(self, entries: int, tag_bits: int, history_length: int):
        self.history_length = history_length
        self.index_bits = entries.bit_length() - 1
        self.tag_bits = tag_bits
        self.ctr = [3] * entries          # 3-bit counter, >=4 predicts taken
        self.tag = [0] * entries
        self.useful = [0] * entries       # 2-bit useful counter
        self._index_mask = entries - 1
        self._tag_mask = (1 << tag_bits) - 1
        self._hist_mask = (1 << history_length) - 1
        self._f_index = _FoldedRegister(history_length, self.index_bits)
        self._f_tag0 = _FoldedRegister(history_length, tag_bits)
        self._f_tag1 = _FoldedRegister(history_length, tag_bits - 1)

    def shift_history(self, new_bit: int, history_before: int) -> None:
        """Advance the folded registers for one global-history shift."""
        out_bit = (history_before >> (self.history_length - 1)) & 1
        self._f_index.shift(new_bit, out_bit)
        self._f_tag0.shift(new_bit, out_bit)
        self._f_tag1.shift(new_bit, out_bit)

    def reset_history(self) -> None:
        self._f_index.reset()
        self._f_tag0.reset()
        self._f_tag1.reset()

    def index_of(self, pc: int) -> int:
        return (
            (pc >> 2) ^ (pc >> (2 + self.index_bits)) ^ self._f_index.value
        ) & self._index_mask

    def tag_of(self, pc: int) -> int:
        return (
            (pc >> 2) ^ self._f_tag0.value ^ (self._f_tag1.value << 1)
        ) & self._tag_mask


class TagePredictor(DirectionPredictor):
    """TAGE with a bimodal base and geometric-history tagged tables."""

    name = "tage"

    #: Clear all useful bits every this many updates (graceful aging).
    _USEFUL_RESET_PERIOD = 1 << 18

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
        if list(history_lengths) != sorted(set(history_lengths)):
            raise ValueError("history lengths must be strictly increasing")
        self.base_entries = base_entries
        self._base_mask = base_entries - 1
        self.base = [1] * base_entries    # 2-bit counters, weakly not-taken
        self.tables = [
            _TaggedTable(table_entries, tag_bits, length) for length in history_lengths
        ]
        # Flattened per-table constants + folded registers for the hot
        # lookup/shift loops (registers are stable objects; the mutable
        # ctr/tag/useful lists are NOT cached — reset()/aging rebind them).
        self._lookup_plan = [
            (t, t.index_bits, t._index_mask, t._tag_mask,
             t._f_index, t._f_tag0, t._f_tag1)
            for t in self.tables
        ]
        self._shift_plan = [
            (reg, t.history_length - 1, reg._bits - 1, reg._mask, reg._out_pos)
            for t in self.tables
            for reg in (t._f_index, t._f_tag0, t._f_tag1)
        ]
        self._max_hist_mask = (1 << history_lengths[-1]) - 1
        self.history = 0
        self._updates = 0
        self._alloc_seed = 0x9E3779B9      # deterministic pseudo-randomness
        # predict() caches its working set for the matching update().
        self._cached_pc: int | None = None
        self._cached: tuple | None = None
        # pc -> working set, valid until the next update()/reset(): the
        # tables and history only change there, so a repeat predict of the
        # same pc (wrong-path walks re-probe loop blocks many times within
        # one squash episode) returns the same result without a lookup.
        self._memo: dict[int, tuple] = {}

    # -- prediction ---------------------------------------------------------

    def _lookup(self, pc: int) -> tuple[list[int], list[int], int, int]:
        """Compute (indices, tags, provider, alt) for ``pc`` at current history.

        The loop inlines :meth:`_TaggedTable.index_of` / ``tag_of`` over the
        flattened plan — this runs once per prediction and the method-call
        overhead is measurable in grid sweeps.
        """
        indices = []
        tags = []
        provider = -1
        alt = -1
        pc2 = pc >> 2
        t = 0
        for table, ibits, imask, tmask, f_idx, f_t0, f_t1 in self._lookup_plan:
            idx = (pc2 ^ (pc2 >> ibits) ^ f_idx.value) & imask
            tag = (pc2 ^ f_t0.value ^ (f_t1.value << 1)) & tmask
            indices.append(idx)
            tags.append(tag)
            if table.tag[idx] == tag:
                alt = provider
                provider = t
            t += 1
        return indices, tags, provider, alt

    def _base_pred(self, pc: int) -> bool:
        return self.base[(pc >> 2) & self._base_mask] >= 2

    def predict(self, pc: int) -> bool:
        cached = self._memo.get(pc)
        if cached is None:
            cached = self._working_set(pc)
            self._memo[pc] = cached
        self._cached_pc = pc
        self._cached = cached
        return cached[4]

    def _working_set(self, pc: int) -> tuple:
        """Lookup result plus predictions for ``pc`` at the current state."""
        indices, tags, provider, alt = self._lookup(pc)
        if provider >= 0:
            table = self.tables[provider]
            idx = indices[provider]
            ctr = table.ctr[idx]
            pred = ctr >= 4
            alt_pred = (
                self.tables[alt].ctr[indices[alt]] >= 4
                if alt >= 0
                else self._base_pred(pc)
            )
            # "Use alt on newly allocated": a weak, never-proven-useful
            # provider entry is likely fresh noise — trust the alternate.
            provider_pred = pred
            if table.useful[idx] == 0 and ctr in (3, 4):
                pred = alt_pred
        else:
            pred = self._base_pred(pc)
            alt_pred = pred
            provider_pred = pred
        return (indices, tags, provider, alt, pred, alt_pred, provider_pred)

    # -- training -----------------------------------------------------------

    def update(self, pc: int, taken: bool) -> None:
        if self._cached_pc != pc or self._cached is None:
            self.predict(pc)
        indices, tags, provider, alt, pred, alt_pred, provider_pred = self._cached  # type: ignore[misc]
        self._cached_pc = None
        self._cached = None
        self._memo.clear()

        if provider >= 0:
            table = self.tables[provider]
            idx = indices[provider]
            ctr = table.ctr[idx]
            if taken:
                if ctr < 7:
                    table.ctr[idx] = ctr + 1
            elif ctr > 0:
                table.ctr[idx] = ctr - 1
            # Useful counter: provider was useful iff it disagreed with the
            # alternate and was right (harmful if it was wrong).
            if provider_pred != alt_pred:
                u = table.useful[idx]
                if provider_pred == taken:
                    if u < 3:
                        table.useful[idx] = u + 1
                elif u > 0:
                    table.useful[idx] = u - 1
        else:
            bidx = (pc >> 2) & self._base_mask
            ctr = self.base[bidx]
            if taken:
                if ctr < 3:
                    self.base[bidx] = ctr + 1
            elif ctr > 0:
                self.base[bidx] = ctr - 1

        # Allocate a longer-history entry on a mispredict.
        if pred != taken and provider < len(self.tables) - 1:
            self._allocate(indices, tags, provider, taken)

        self._updates += 1
        if self._updates % self._USEFUL_RESET_PERIOD == 0:
            for table in self.tables:
                table.useful = [0] * len(table.useful)

        bit = 1 if taken else 0
        history_before = self.history
        # Inlined _TaggedTable.shift_history over every folded register
        # (12 rotate-XOR steps), hottest part of the update path.
        for reg, out_shift, rot, mask, out_pos in self._shift_plan:
            out_bit = (history_before >> out_shift) & 1
            v = reg.value
            v = ((v << 1) | (v >> rot)) & mask  # rotate left
            reg.value = v ^ bit ^ (out_bit << out_pos)
        self.history = ((history_before << 1) | bit) & self._max_hist_mask

    def _allocate(
        self, indices: list[int], tags: list[int], provider: int, taken: bool
    ) -> None:
        start = provider + 1
        candidates = [
            t for t in range(start, len(self.tables))
            if self.tables[t].useful[indices[t]] == 0
        ]
        if not candidates:
            # Nothing free: age the candidates instead of allocating.
            for t in range(start, len(self.tables)):
                idx = indices[t]
                if self.tables[t].useful[idx] > 0:
                    self.tables[t].useful[idx] -= 1
            return
        # Prefer shorter history (standard TAGE bias: pick the first free
        # table with probability 1/2, else the next).
        self._alloc_seed = (self._alloc_seed * 1103515245 + 12345) & 0xFFFFFFFF
        pick = candidates[0]
        if len(candidates) > 1 and (self._alloc_seed >> 16) & 1:
            pick = candidates[1]
        table = self.tables[pick]
        idx = indices[pick]
        table.tag[idx] = tags[pick]
        table.ctr[idx] = 4 if taken else 3
        table.useful[idx] = 0

    # -- accounting ---------------------------------------------------------

    def storage_bits(self) -> int:
        bits = 2 * self.base_entries
        for table in self.tables:
            entry_bits = 3 + table.tag_bits + 2
            bits += entry_bits * len(table.ctr)
        bits += self.tables[-1].history_length  # global history register
        return bits

    def reset(self) -> None:
        self.base = [1] * self.base_entries
        for table in self.tables:
            n = len(table.ctr)
            table.ctr = [3] * n
            table.tag = [0] * n
            table.useful = [0] * n
            table.reset_history()
        self.history = 0
        self._updates = 0
        self._cached_pc = None
        self._cached = None
        self._memo.clear()
