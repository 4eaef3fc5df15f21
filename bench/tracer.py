"""Traced run: spans and counts at every layer boundary, from outside `src/`.

``Tracer.install`` wraps the public functions and methods of each layer
module, including the names one module imported from another (such as
``contract.verify_sig``) and the contract circuits registered with the
ledger.  Spans and counts are recorded only inside the benchmark's timed
calls into the program (``workloads._timed``), so the benchmark's own
checks, such as ``Ledger.digest()``, do not count.  Each call records a
span (name, start, end, parent) in flat arrays kept in memory;
``write_spans`` writes them out at the end.  Counts are taken by small
hooks on the same wrappers.  A layer's self time is the duration of its
spans minus the time their child spans cover.
"""

from __future__ import annotations

import functools
import inspect
import sys
from array import array
from collections import Counter
from pathlib import Path
from time import perf_counter

import workloads
from boltpay import (bridge, cli, contract, games, harness, ledger,  # noqa: F401
                     lightning, qlds, wallet)

LAYERS = ("lightning", "qlds", "ledger", "contract", "wallet", "harness",
          "cli", "games", "bridge")

_LEDGER_WRITES = ("add_party", "add_transaction", "add_smart_contract",
                  "initialize_with_coins", "add_contract_with_coins", "trigger")
_LEDGER_READS = ("retrieve_party", "retrieve_transaction", "retrieve_contract")
_CIRCUIT_FUNCTIONS = ("phi_money", "phi_money_sig", "phi_money_cr")


def _count(metric):
    def hook(counts, args, result):
        counts[metric] += 1
    return hook


def _ledger_write(counts, args, result):
    counts["ledger.refused" if result is None or result is False
           else "ledger.writes"] += 1


def _circuit(counts, args, result):
    counts["contract.evals"] += 1
    if result is not None:
        counts["contract.accepts"] += 1


def _scan_start(counts, args):
    w = args[0]
    counts["wallet.notes_scanned"] += sum(
        1 for ssid in w.notes if ssid not in w.pending_challenges)


def _scan_end(counts, args, result):
    counts["wallet.scans"] += 1
    counts["wallet.challenges"] += sum(1 for _, what in result
                                       if what == "challenge")


def _log_line(counts, args, result):
    counts["harness.log_lines"] += 1
    counts["harness.trace_bytes"] += len(args[0].trace[-1]) + 1


def _game(counts, args, result):
    counts["games.trials"] += result.trials


POST_HOOKS = {
    "lightning.QuantumEnv.transfer_bolt": _count("lightning.bolt_transfers"),
    "lightning.QuantumEnv.verify_bolt": _count("lightning.bolt_verifies"),
    "lightning.QuantumEnv.gen_bolt": _count("lightning.bolts_minted"),
    "lightning.QuantumEnv.gen_certificate": _count("lightning.certificates"),
    "lightning.ql_setup": _count("lightning.envs"),
    "qlds.qlds_gen": _count("qlds.keys"),
    "qlds.gen_sig": _count("qlds.sigs"),
    "qlds.verify_sig": _count("qlds.sig_verifies"),
    "ledger.Ledger.tick": _count("ledger.ticks"),
    "wallet.Wallet.pay": _count("wallet.pays"),
    "wallet.Wallet.watchdog_scan": _scan_end,
    "harness.Simulation.tick": _count("harness.ticks"),
    "harness.Simulation.log": _log_line,
    "harness.Simulation.account": _count("harness.accounts"),
    "cli.main": _count("cli.runs"),
    "bridge.merkle_node": _count("bridge.merkle_nodes"),
    "bridge.LamportScheme.verify": _count("bridge.sig_checks"),
}
POST_HOOKS.update({f"ledger.Ledger.{m}": _ledger_write for m in _LEDGER_WRITES})
POST_HOOKS.update({f"ledger.Ledger.{m}": _count("ledger.reads")
                   for m in _LEDGER_READS})
POST_HOOKS.update({f"contract.{f}": _circuit for f in _CIRCUIT_FUNCTIONS})
POST_HOOKS.update({f"games.{f}": _game for f in (
    "game_counterfeit", "game_forge_certificate", "game_forge_signature",
    "game_sabotage_money", "game_sabotage_certificate",
    "game_sabotage_signature")})
PRE_HOOKS = {"wallet.Wallet.watchdog_scan": _scan_start}

COUNT_METRICS = (
    "lightning.bolt_transfers", "lightning.bolt_verifies",
    "lightning.bolts_minted", "lightning.certificates", "lightning.envs",
    "qlds.keys", "qlds.sigs", "qlds.sig_verifies",
    "ledger.reads", "ledger.writes", "ledger.refused", "ledger.ticks",
    "contract.evals", "contract.accepts",
    "wallet.pays", "wallet.scans", "wallet.notes_scanned", "wallet.challenges",
    "harness.ticks", "harness.log_lines", "harness.trace_bytes",
    "harness.accounts",
    "cli.runs", "games.trials", "bridge.merkle_nodes", "bridge.sig_checks",
)


class Tracer:
    """Spans, counts and the patches that produce them, for one traced run."""

    def __init__(self):
        self.names: list[str] = []
        self.layer_of: list[int] = []
        self.ids = array("i")
        self.parents = array("i")
        self.starts = array("d")
        self.ends = array("d")
        self.stack = [-1]
        self.active = [False]
        self.counts: Counter = Counter()
        self.batches: list[tuple[int, int, float]] = []  # (first, end, factor)
        self._patches: list[tuple[object, str, object]] = []

    # -- wrapping ---------------------------------------------------------------

    def _wrap(self, fn, name: str, layer: int):
        nid = len(self.names)
        self.names.append(name)
        self.layer_of.append(layer)
        ids, parents, starts, ends = self.ids, self.parents, self.starts, self.ends
        stack, counts, active = self.stack, self.counts, self.active
        pre, post = PRE_HOOKS.get(name), POST_HOOKS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not active[0]:
                return fn(*args, **kwargs)
            if pre is not None:
                pre(counts, args)
            idx = len(ids)
            ids.append(nid)
            parents.append(stack[-1])
            ends.append(0.0)
            stack.append(idx)
            starts.append(perf_counter())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[idx] = perf_counter()
                stack.pop()
            if post is not None:
                post(counts, args, result)
            return result

        return traced

    def _set(self, owner, attr: str, value) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def install(self) -> None:
        timed = workloads._timed
        active = self.active

        def traced_timed(fn, *args, **kwargs):
            active[0] = True
            try:
                return timed(fn, *args, **kwargs)
            finally:
                active[0] = False

        self._set(workloads, "_timed", traced_timed)
        wrapped = {}  # original function -> wrapper
        for layer, mod_name in enumerate(LAYERS):
            mod = sys.modules[f"boltpay.{mod_name}"]
            for attr, obj in list(vars(mod).items()):
                if attr.startswith("_"):
                    continue
                if inspect.isfunction(obj) and obj.__module__ == mod.__name__:
                    wrapped[obj] = self._wrap(obj, f"{mod_name}.{attr}", layer)
                elif inspect.isclass(obj) and obj.__module__ == mod.__name__:
                    self._wrap_class(obj, f"{mod_name}.{attr}", layer)
        # every module-level name bound to a wrapped function, wherever
        # it was imported to, now calls the wrapper
        for mod_name, mod in list(sys.modules.items()):
            if not mod_name.startswith("boltpay"):
                continue
            for attr, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and obj in wrapped:
                    self._set(mod, attr, wrapped[obj])
        # the circuits are called through the ledger's registry and the
        # contract's dispatch table
        self._circuit_originals = [
            (table, dict(table)) for table in (ledger._CIRCUITS,
                                               contract.PHI_BY_VARIANT)]
        for table, originals in self._circuit_originals:
            for kind, fn in originals.items():
                table[kind] = wrapped.get(fn, fn)

    def _wrap_class(self, cls, prefix: str, layer: int) -> None:
        for attr, obj in list(vars(cls).items()):
            if attr.startswith("_"):
                continue
            if inspect.isfunction(obj):
                self._set(cls, attr, self._wrap(obj, f"{prefix}.{attr}", layer))
            elif isinstance(obj, (classmethod, staticmethod)):
                inner = self._wrap(obj.__func__, f"{prefix}.{attr}", layer)
                self._set(cls, attr, type(obj)(inner))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()
        for table, originals in self._circuit_originals:
            table.update(originals)

    # -- batches and results -------------------------------------------------------

    def mark(self) -> int:
        return len(self.ids)

    def close_batch(self, first: int, factor: float) -> None:
        self.batches.append((first, len(self.ids), factor))

    def self_ms(self) -> dict[str, float]:
        """Normalised self time per layer, in ms."""
        n = len(self.ids)
        child = array("d", bytes(8 * n))
        for i in range(n):
            p = self.parents[i]
            if p >= 0:
                child[p] += self.ends[i] - self.starts[i]
        per_layer = [0.0] * len(LAYERS)
        for first, end, factor in self.batches:
            for i in range(first, end):
                own = self.ends[i] - self.starts[i] - child[i]
                per_layer[self.layer_of[self.ids[i]]] += own * factor
        return {f"{LAYERS[k]}.self_ms": v * 1000 for k, v in enumerate(per_layer)}

    def metrics(self) -> dict[str, float]:
        out = {name: self.counts.get(name, 0) for name in COUNT_METRICS}
        scanned = out["wallet.notes_scanned"]
        out["wallet.scan_hit_ratio"] = (out["wallet.challenges"] / scanned
                                        if scanned else 0.0)
        out.update(self.self_ms())
        return out

    def write_spans(self, path: Path) -> None:
        """Write the name table, then one line per span.

        Lines starting with ``#`` give ``name_id name``.  Span lines are
        tab-separated: parent span (its line number among the span lines,
        -1 for a root), name id, start and duration in ns, the start
        counted from the first span.
        """
        path.parent.mkdir(parents=True, exist_ok=True)
        t0 = self.starts[0] if len(self.starts) else 0.0
        with path.open("w") as f:
            for nid, name in enumerate(self.names):
                f.write(f"#{nid}\t{name}\n")
            for i in range(len(self.ids)):
                start = self.starts[i]
                f.write(f"{self.parents[i]}\t{self.ids[i]}\t"
                        f"{round((start - t0) * 1e9)}\t"
                        f"{round((self.ends[i] - start) * 1e9)}\n")
