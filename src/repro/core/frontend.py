"""Pluggable instruction-delivery (frontend) timing models.

The paper idealizes everything upstream of dispatch: perfect branch
prediction and a perfect instruction cache (Section 3, Table 1), so its
simulated frontend never starves the window.  That idealization is exactly
what the ``ablation_realism`` experiment relaxes: how much of the LVC's
headroom survives once the frontend charges real redirect and fill bubbles?

Because the core is trace-driven — it replays the *committed* path — a
realistic frontend does not change which instructions execute, only **when
dispatch may deliver them**.  Prediction outcomes and I-cache probes are
therefore timing-independent: they depend only on the in-order committed
stream, never on the out-of-order timing around it.  :meth:`prepare`
exploits this by walking the stream's ``pc`` and ``fu`` columns once,
before simulation, and emitting a sparse gate list the dispatch stage
consults in O(1) per instruction:

``(index, code)`` with code bit 0
    an I-cache miss: dispatch stalls ``icache_miss_latency`` cycles
    *before* delivering instruction ``index`` (``frontend.fetch_bubbles``);
``(index, code)`` with code bit 1
    a mispredicted branch at ``index``: after it dispatches, delivery
    pauses for ``redirect_penalty`` cycles while the pipeline refills from
    the correct path (``frontend.redirect_bubbles``).

Policies (see :data:`FRONTEND_POLICIES`):

``perfect``
    today's model: no gates, dispatch is never frontend-limited;
``gshare``
    a gshare predictor (global history XOR PC indexing a 2-bit counter
    table) plus a direct-mapped finite I-cache.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

from repro.errors import ConfigError
from repro.isa.opcodes import FuClass
from repro.utils import is_power_of_two

_BRANCH = int(FuClass.BRANCH)

#: Gate codes in the prepared schedule.
GATE_IMISS = 1     # stall before delivering the instruction
GATE_REDIRECT = 2  # stall after delivering the instruction


class FrontendConfig:
    """Frontend timing parameters (ignored entirely by ``perfect``).

    No ``__slots__``: the runtime cache derives config signatures from
    instance ``vars()``, so every field added here is picked up
    automatically.
    """

    def __init__(
        self,
        policy: str = "perfect",
        gshare_table_bits: int = 12,
        gshare_history_bits: int = 8,
        icache_lines: int = 512,
        icache_line_bytes: int = 32,
        icache_miss_latency: int = 6,
        redirect_penalty: int = 8,
    ):
        if policy not in FRONTEND_POLICIES:
            raise ConfigError(
                f"unknown frontend policy {policy!r}; "
                f"known: {', '.join(sorted(FRONTEND_POLICIES))}")
        if gshare_table_bits <= 0 or gshare_table_bits > 24:
            raise ConfigError(
                f"gshare table bits out of range: {gshare_table_bits}")
        if gshare_history_bits < 0 or gshare_history_bits > 32:
            raise ConfigError(
                f"gshare history bits out of range: {gshare_history_bits}")
        if not is_power_of_two(icache_lines):
            raise ConfigError(
                f"I-cache line count must be a power of two: {icache_lines}")
        if not is_power_of_two(icache_line_bytes):
            raise ConfigError(
                f"I-cache line size must be a power of two: "
                f"{icache_line_bytes}")
        if icache_miss_latency <= 0:
            raise ConfigError(
                f"I-cache miss latency must be positive: "
                f"{icache_miss_latency}")
        if redirect_penalty <= 0:
            raise ConfigError(
                f"redirect penalty must be positive: {redirect_penalty}")
        self.policy = policy
        self.gshare_table_bits = gshare_table_bits
        self.gshare_history_bits = gshare_history_bits
        self.icache_lines = icache_lines
        self.icache_line_bytes = icache_line_bytes
        self.icache_miss_latency = icache_miss_latency
        self.redirect_penalty = redirect_penalty

    def __repr__(self) -> str:
        return f"FrontendConfig({self.policy!r})"


class PerfectFrontend:
    """The paper's assumption: instruction delivery is never a bottleneck."""

    def __init__(self, config: FrontendConfig):
        self.config = config
        self.mispredicts = 0
        self.icache_misses = 0

    def prepare(self, stream) -> Optional[List[Tuple[int, int]]]:
        """No gates: dispatch runs at full width every cycle."""
        return None


class GshareFrontend(PerfectFrontend):
    """gshare branch prediction + a direct-mapped finite I-cache.

    One pass over the committed stream's ``pc`` and ``fu`` columns (see
    the module docstring for why a pre-pass is exact here).  Branch
    direction ground truth is recovered from the stream itself: a branch
    fell through iff the next committed instruction is its static
    successor.
    """

    def prepare(self, stream) -> List[Tuple[int, int]]:
        cfg = self.config
        table_size = 1 << cfg.gshare_table_bits
        tmask = table_size - 1
        hmask = (1 << cfg.gshare_history_bits) - 1
        counters = [1] * table_size  # 2-bit counters, init weakly not-taken
        line_shift = cfg.icache_line_bytes.bit_length() - 1
        set_mask = cfg.icache_lines - 1
        tags = [-1] * cfg.icache_lines
        history = 0
        gates: List[Tuple[int, int]] = []
        mispredicts = 0
        icache_misses = 0
        pcs = stream.pc
        fus = stream.fu
        n = len(pcs)
        for i in range(n):
            pc = pcs[i]
            code = 0
            line = (pc << 2) >> line_shift  # 4-byte instruction slots
            s = line & set_mask
            if tags[s] != line:
                tags[s] = line
                icache_misses += 1
                code = GATE_IMISS
            if fus[i] == _BRANCH:
                idx = (pc ^ history) & tmask
                counter = counters[idx]
                taken = i + 1 < n and pcs[i + 1] != pc + 1
                if (counter >= 2) != taken:
                    mispredicts += 1
                    code |= GATE_REDIRECT
                if taken:
                    if counter < 3:
                        counters[idx] = counter + 1
                elif counter > 0:
                    counters[idx] = counter - 1
                history = ((history << 1) | taken) & hmask
            if code:
                gates.append((i, code))
        self.mispredicts = mispredicts
        self.icache_misses = icache_misses
        return gates


#: Policy-name -> frontend model.
FRONTEND_POLICIES = {
    "perfect": PerfectFrontend,
    "gshare": GshareFrontend,
}


def make_frontend(config: Optional[FrontendConfig]) -> PerfectFrontend:
    """Construct the frontend model named by *config* (None -> perfect)."""
    if config is None:
        config = FrontendConfig()
    return FRONTEND_POLICIES[config.policy](config)
