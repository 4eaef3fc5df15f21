"""Ledger semantics: registration, payments, contract lifecycle, payouts."""

from dataclasses import dataclass

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from boltpay.contract import PhiParams, RecoverCoins, banknote_params
from boltpay.errors import ParseError
from boltpay.ledger import (
    ALL_COINS,
    ContractParams,
    Ledger,
    parse_pid,
    register_circuit,
)
from boltpay.lightning import ql_setup

ALICE = "alice:50"
BOB = "bob:50"


@dataclass(frozen=True)
class ScriptedCircuit:
    """Trigger test double: the witness itself dictates the transition."""

    variant: str = "test-scripted"


def _scripted(circuit, pid, w, t, st, d):
    if isinstance(w, tuple) and w and w[0] == "set":
        return w[1], w[2]
    if w == "time":
        return t, 0
    return None


register_circuit("test-scripted", _scripted)


def scripted_contract(pid, deposit):
    return ContractParams(members=(pid,), deposits=((pid, deposit),),
                          circuit=ScriptedCircuit(), initial_state="start")


def funded(pid=ALICE, pot=10):
    led = Ledger()
    led.add_party(pid)
    ssid = led.add_contract_with_coins(pid, scripted_contract(pid, pot))
    return led, ssid


# -- parties -----------------------------------------------------------

def test_add_party_registers_coins_from_the_id():
    led = Ledger()
    assert led.add_party(ALICE) is True
    assert led.retrieve_party(ALICE) == 50


def test_add_party_repeat_is_ignored():
    led = Ledger()
    led.add_party(ALICE)
    assert led.add_party(ALICE) is False
    assert led.retrieve_party(ALICE) == 50


def test_party_id_must_carry_a_coin_count():
    led = Ledger()
    with pytest.raises(ParseError):
        led.add_party("bob")
    assert parse_pid(ALICE) == ("alice", 50)
    with pytest.raises(ParseError):
        parse_pid(":5")
    with pytest.raises(ParseError):
        parse_pid("x:")
    # str.isdigit() accepts these; int() refuses the first and reads 3, 5
    for pid in ("a:\u00b2", "a:\u0663", "a:\uff15"):
        with pytest.raises(ParseError):
            parse_pid(pid)


def test_retrieve_unknown_party():
    assert Ledger().retrieve_party("ghost:1") is None


# -- transactions ------------------------------------------------------

def test_transaction_moves_coins():
    led = Ledger()
    led.add_party(ALICE)
    led.add_party(BOB)
    tr = led.add_transaction(ALICE, BOB, 20)
    assert tr == 1
    assert led.retrieve_party(ALICE) == 30
    assert led.retrieve_party(BOB) == 70
    rec = led.retrieve_transaction(tr)
    assert (rec.payer, rec.payee, rec.amount) == (ALICE, BOB, 20)


def test_payer_must_keep_a_positive_balance():
    # paying the whole balance is refused, one coin less goes through
    led = Ledger()
    led.add_party(ALICE)
    led.add_party(BOB)
    assert led.add_transaction(ALICE, BOB, 50) is None
    assert led.retrieve_party(ALICE) == 50
    assert led.add_transaction(ALICE, BOB, 49) == 1


def test_transaction_rejects_unknown_parties_and_negative_amounts():
    led = Ledger()
    led.add_party(ALICE)
    assert led.add_transaction(ALICE, "ghost:1", 5) is None
    assert led.add_transaction("ghost:1", ALICE, 5) is None
    assert led.add_transaction(ALICE, ALICE, -1) is None


def test_transaction_ids_are_one_based():
    led = Ledger()
    led.add_party(ALICE)
    led.add_party(BOB)
    led.add_transaction(ALICE, BOB, 1)
    assert led.retrieve_transaction(0) is None
    assert led.retrieve_transaction(2) is None
    assert led.retrieve_transaction(1).tr_id == 1


# -- contract recording and funding ------------------------------------

def test_contract_ids_count_up_from_one():
    led = Ledger()
    led.add_party(ALICE)
    p = scripted_contract(ALICE, 5)
    assert led.add_smart_contract(p) == 1
    assert led.add_smart_contract(p) == 2


def test_contract_with_unregistered_member_is_refused():
    led = Ledger()
    led.add_party(ALICE)
    p = ContractParams(members=(ALICE, "ghost:1"), deposits=(),
                       circuit=ScriptedCircuit(), initial_state=None)
    assert led.add_smart_contract(p) is None
    assert led.add_smart_contract(ContractParams(
        members=(), deposits=(), circuit=ScriptedCircuit(),
        initial_state=None)) is None


def test_a_negative_deposit_is_refused_when_the_params_are_built():
    # funding it would move coins out of the pot into the member's balance
    for deposits in (((ALICE, -5),), ((ALICE, 3), (BOB, -1))):
        with pytest.raises(ParseError, match="must not be negative"):
            ContractParams(members=(ALICE, BOB), deposits=deposits,
                           circuit=ScriptedCircuit(), initial_state="start")
    assert scripted_contract(ALICE, 0).deposit_of(ALICE) == 0


def test_initialization_may_spend_the_whole_balance():
    # unlike a transaction, funding a contract can zero the party out
    led = Ledger()
    led.add_party(ALICE)
    p = scripted_contract(ALICE, 50)
    ssid = led.add_smart_contract(p)
    assert led.initialize_with_coins(ALICE, ssid, p) == "ok"
    assert led.retrieve_party(ALICE) == 0
    assert led.retrieve_contract(ssid)[2] == 50


def test_initialization_fails_without_funds():
    led = Ledger()
    led.add_party(ALICE)
    p = scripted_contract(ALICE, 51)
    ssid = led.add_smart_contract(p)
    assert led.initialize_with_coins(ALICE, ssid, p) is None
    assert led.retrieve_party(ALICE) == 50
    assert led.retrieve_contract(ssid) is None


def test_reinitialization_is_refused():
    led = Ledger()
    led.add_party(ALICE)
    p = scripted_contract(ALICE, 5)
    ssid = led.add_smart_contract(p)
    led.initialize_with_coins(ALICE, ssid, p)
    assert led.initialize_with_coins(ALICE, ssid, p) is None
    assert led.retrieve_party(ALICE) == 45


def test_initialization_parameters_must_match_the_record():
    led = Ledger()
    led.add_party(ALICE)
    ssid = led.add_smart_contract(scripted_contract(ALICE, 5))
    assert led.initialize_with_coins(ALICE, ssid, scripted_contract(ALICE, 6)) is None
    assert led.initialize_with_coins(BOB, ssid, scripted_contract(ALICE, 5)) is None


def test_two_member_initialization_waits_for_both():
    led = Ledger()
    led.add_party(ALICE)
    led.add_party(BOB)
    p = ContractParams(members=(ALICE, BOB), deposits=((ALICE, 10), (BOB, 20)),
                       circuit=ScriptedCircuit(), initial_state="go")
    ssid = led.add_smart_contract(p)
    assert led.initialize_with_coins(ALICE, ssid, p) == "pending"
    assert led.retrieve_party(ALICE) == 50
    assert led.initialize_with_coins(BOB, ssid, p) == "ok"
    assert led.retrieve_party(ALICE) == 40
    assert led.retrieve_party(BOB) == 30
    assert led.retrieve_contract(ssid) == (p, "go", 30)


def test_underfunded_completion_clears_the_pending_set():
    led = Ledger()
    led.add_party("poor:5")
    led.add_party(BOB)
    p = ContractParams(members=("poor:5", BOB), deposits=(("poor:5", 8), (BOB, 1)),
                       circuit=ScriptedCircuit(), initial_state=None)
    ssid = led.add_smart_contract(p)
    assert led.initialize_with_coins("poor:5", ssid, p) == "pending"
    assert led.initialize_with_coins(BOB, ssid, p) is None
    assert led.retrieve_party(BOB) == 50
    # the group can retry after poor finds coins
    led.add_transaction(BOB, "poor:5", 10)
    assert led.initialize_with_coins("poor:5", ssid, p) == "pending"
    assert led.initialize_with_coins(BOB, ssid, p) == "ok"


def test_single_message_create_and_fund():
    led = Ledger()
    led.add_party(ALICE)
    before = led.write_count
    ssid = led.add_contract_with_coins(ALICE, scripted_contract(ALICE, 50))
    assert ssid == 1
    assert led.write_count == before + 1
    assert led.retrieve_party(ALICE) == 0
    assert led.retrieve_contract(ssid)[2] == 50


def test_single_message_funding_rejects_multi_member_and_poverty():
    led = Ledger()
    led.add_party(ALICE)
    led.add_party(BOB)
    multi = ContractParams(members=(ALICE, BOB), deposits=((ALICE, 1), (BOB, 1)),
                           circuit=ScriptedCircuit(), initial_state=None)
    assert led.add_contract_with_coins(ALICE, multi) is None
    assert led.add_contract_with_coins(ALICE, scripted_contract(ALICE, 51)) is None
    assert led.retrieve_party(ALICE) == 50
    assert led.contracts == []


# -- trigger mechanics --------------------------------------------------

def test_refused_trigger_charges_nothing():
    led, ssid = funded()
    assert led.trigger(ALICE, ssid, ("noop",), 7) is None
    assert led.retrieve_party(ALICE) == 40
    assert led.retrieve_contract(ssid) == (led.contracts[0].params, "start", 10)


def test_trigger_deposit_needs_strictly_more_coins():
    led, ssid = funded()  # alice holds 40 after the pot
    assert led.trigger(ALICE, ssid, ("set", "s", 0), 40) is None
    assert led.trigger(ALICE, ssid, ("set", "s", 0), 39) == 0
    assert led.retrieve_party(ALICE) == 1
    assert led.retrieve_contract(ssid)[2] == 49


def test_trigger_zero_payout_returns_zero_not_none():
    led, ssid = funded()
    paid = led.trigger(ALICE, ssid, ("set", "s2", 0), 0)
    assert paid == 0 and paid is not None
    assert led.retrieve_contract(ssid)[1] == "s2"


def test_payout_draws_from_pot_plus_deposit():
    led, ssid = funded(pot=10)
    # deposit 5 joins the pot before the 12-coin payout leaves it
    assert led.trigger(ALICE, ssid, ("set", "s", 12), 5) == 12
    assert led.retrieve_party(ALICE) == 47
    params, state, pot = led.retrieve_contract(ssid)
    assert pot == 3 and not led.contracts[0].terminated


def test_payout_beyond_pot_empties_and_terminates():
    led, ssid = funded(pot=10)
    assert led.trigger(ALICE, ssid, ("set", "s", 99), 0) == 10
    assert led.contracts[0].terminated
    assert led.trigger(ALICE, ssid, ("set", "s", 0), 0) is None


def test_payout_of_exactly_the_pot_terminates():
    led, ssid = funded(pot=10)
    assert led.trigger(ALICE, ssid, ("set", "s", 10), 0) == 10
    assert led.contracts[0].terminated


def test_all_coins_payout_terminates():
    led, ssid = funded(pot=10)
    assert led.trigger(ALICE, ssid, ("set", None, ALL_COINS), 3) == 13
    assert led.retrieve_party(ALICE) == 50
    assert led.contracts[0].terminated


def test_trigger_requires_live_initialized_contract_and_known_sender():
    led = Ledger()
    led.add_party(ALICE)
    p = scripted_contract(ALICE, 5)
    ssid = led.add_smart_contract(p)
    assert led.trigger(ALICE, ssid, ("set", "s", 0), 0) is None  # uninitialized
    led.initialize_with_coins(ALICE, ssid, p)
    assert led.trigger("ghost:1", ssid, ("set", "s", 0), 0) is None
    assert led.trigger(ALICE, 99, ("set", "s", 0), 0) is None
    assert led.trigger(ALICE, ssid, ("set", "s", 0), -1) is None


def test_triggers_see_the_current_tick():
    led, ssid = funded()
    for _ in range(4):
        led.tick()
    assert led.time == 4
    led.trigger(ALICE, ssid, "time", 0)
    assert led.retrieve_contract(ssid)[1] == 4


def test_real_banknote_circuit_pays_out_through_the_ledger():
    env = ql_setup(128, bytes(32))
    bolt = env.gen_bundle("alice", 1)
    phi = PhiParams()
    led = Ledger()
    led.add_party(ALICE)
    ssid = led.add_contract_with_coins(
        ALICE, banknote_params(ALICE, 40, phi, bolt.serial))
    cert = env.measure_bolts(bolt, (0,))
    assert led.trigger(ALICE, ssid, RecoverCoins(cert), 0) == 40
    assert led.retrieve_party(ALICE) == 50
    assert led.contracts[0].terminated


# -- counters and digests -----------------------------------------

def test_write_count_includes_rejected_submissions():
    led = Ledger()
    led.add_party(ALICE)
    base = led.write_count
    led.add_transaction(ALICE, "ghost:1", 5)   # rejected
    led.trigger(ALICE, 1, "x", 0)              # rejected
    led.tick()
    assert led.write_count == base + 3


def test_reads_are_counted_separately():
    led = Ledger()
    led.add_party(ALICE)
    w = led.write_count
    led.retrieve_party(ALICE)
    led.retrieve_transaction(1)
    led.retrieve_contract(1)
    assert led.read_count == 3 and led.write_count == w


def test_digest_tracks_state_not_instrumentation():
    a, _ = funded()
    b, _ = funded()
    assert a.digest() == b.digest()
    b.retrieve_party(ALICE)   # read counter moves, state does not
    assert a.digest() == b.digest()
    b.tick()
    assert a.digest() != b.digest()


PIDS = ("p0:30", "p1:30", "p2:30")


@settings(max_examples=60, deadline=None)
@given(st.lists(st.tuples(st.integers(0, 4), st.integers(0, 2),
                          st.integers(0, 2), st.integers(0, 14)),
                max_size=40))
def test_no_operation_sequence_creates_or_destroys_coins(ops):
    led = Ledger()
    for pid in PIDS:
        led.add_party(pid)
    minted = sum(parse_pid(p)[1] for p in PIDS)
    for op, a, b, amount in ops:
        pa, pb = PIDS[a], PIDS[b]
        if op == 0:
            led.add_transaction(pa, pb, amount)
        elif op == 1:
            led.add_contract_with_coins(pa, scripted_contract(pa, amount))
        elif op == 2:
            payout = ALL_COINS if amount % 3 == 0 else amount
            led.trigger(pa, 1 + b, ("set", "s", payout), amount % 5)
        elif op == 3:
            led.trigger(pa, 1 + b, ("noop",), amount % 5)
        else:
            led.tick()
        assert led.total_coins() == minted
