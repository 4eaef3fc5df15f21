"""boltpay: a deterministic simulator for uncloneable-banknote payments.

The pieces, bottom to top:

* lightning: move-only "bolt" states with serial numbers, the no-cloning
  guarantee, and destructive measurement into possession certificates;
  bundles of bolts that move and verify as one, each bolt a position.
* qlds: one-time signatures whose secret key is a bundle of 2n bolts.
* ledger: the trusted coin ledger with parties, transactions, stateful
  contracts, and logical time.
* contract: the banknote contract circuit in three flavors (base,
  sig-gated, commit-reveal) plus its claim/challenge state machine.
* wallet: honest-party protocols: mint, pay, redeem, lost claims, and
  the watchdog that answers hostile claims.
* harness: scripted adversaries, message scheduling, and the net-value
  accounting that the soundness statement is about.
* games: the six falsification games (counterfeiting, forgeries,
  sabotage); all must report zero wins while cloning is impossible.
* attacks: three front-running attacks, with and without the mitigation.
* bridge: burn-announcement encoding and the Merkle split that keeps the
  on-chain footprint constant.
* cli: `boltpay run|games|demo`.
"""

from . import contract as _contract  # registers the banknote circuits
from .contract import (
    NO_CLAIM,
    BanknoteState,
    PhiParams,
    banknote_params,
)
from .errors import (
    BoltPayError,
    DomainError,
    KeyExhausted,
    MeasureFailed,
    MintFailed,
    NotOwner,
    ParseError,
    ScriptError,
    SetupRejected,
)
from .harness import SimConfig, Simulation, run_scenario
from .ledger import ALL_COINS, ContractParams, Ledger
from .lightning import BundleHandle, QuantumEnv, ql_setup, verify_certificate
from .qlds import QldsParams, gen_sig, qlds_gen, qlds_ver, verify_sig
from .wallet import Banknote, Wallet

__version__ = "0.1.0"

__all__ = [
    "ALL_COINS",
    "Banknote",
    "BanknoteState",
    "BoltPayError",
    "BundleHandle",
    "ContractParams",
    "DomainError",
    "KeyExhausted",
    "Ledger",
    "MeasureFailed",
    "MintFailed",
    "NO_CLAIM",
    "NotOwner",
    "ParseError",
    "PhiParams",
    "QldsParams",
    "QuantumEnv",
    "ScriptError",
    "SetupRejected",
    "SimConfig",
    "Simulation",
    "Wallet",
    "banknote_params",
    "gen_sig",
    "ql_setup",
    "qlds_gen",
    "qlds_ver",
    "run_scenario",
    "verify_certificate",
    "verify_sig",
    "__version__",
]
