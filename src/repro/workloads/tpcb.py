"""TPC-B: the classic bank-transfer OLTP stress test.

Structurally faithful, dimensionally scaled: ``sf`` branches, 10 tellers
per branch, ``accounts_per_branch`` accounts per branch (the official
100 000 per branch shrinks to a laptop-sized default — access *skew* and
the read/modify/write pattern are what the paper's experiments depend
on, not the absolute footprint).

The transaction (100% of the mix) is the spec's: update one account, its
teller and its branch balance by a random delta and append a history
row.  85% of transactions touch an account of the teller's home branch,
15% a remote one, as in the spec.

``verify_consistency`` checks the invariant auditors would:
sum(accounts) == sum(tellers) == sum(branches) == sum(history deltas).
"""

from __future__ import annotations

import random
import struct
from typing import Callable, Tuple

from ..db.database import Database
from ..db.heap import pack_rid, unpack_rid
from ..db.locks import LockMode
from .base import Workload

__all__ = ["TPCB"]

_ACCOUNT = struct.Struct("<qqq28x")   # aid, bid, balance (+pad -> 52 bytes)
_TELLER = struct.Struct("<qqq28x")
_BRANCH = struct.Struct("<qq36x")     # bid, balance
_HISTORY = struct.Struct("<qqqq20x")  # aid, tid, bid, delta

TELLERS_PER_BRANCH = 10
#: Share of transactions whose account lives at another branch than the
#: teller's (TPC-B's 15 %).
REMOTE_FRACTION = 0.15


class TPCB(Workload):
    name = "tpcb"

    def __init__(self, sf: int = 1, accounts_per_branch: int = 1000):
        if sf < 1:
            raise ValueError("sf must be >= 1")
        if accounts_per_branch < TELLERS_PER_BRANCH:
            raise ValueError("accounts_per_branch too small")
        self.sf = sf
        self.accounts_per_branch = accounts_per_branch
        self.num_branches = sf
        self.num_tellers = sf * TELLERS_PER_BRANCH
        self.num_accounts = sf * accounts_per_branch

    # -- loading -------------------------------------------------------------------

    def declare_schema(self, db: Database):
        """Generator: the catalog alone (heaps + indexes, no rows) — what
        crash recovery re-declares before replaying the WAL."""
        db.create_heap("tpcb_accounts", hint="hot")
        db.create_heap("tpcb_tellers", hint="hot")
        db.create_heap("tpcb_branches", hint="hot")
        db.create_heap("tpcb_history", hint="cold")
        yield from db.create_index("tpcb_account_idx")
        yield from db.create_index("tpcb_teller_idx")
        yield from db.create_index("tpcb_branch_idx")

    def load(self, db: Database):
        yield from self.declare_schema(db)
        accounts = db.heaps["tpcb_accounts"]
        tellers = db.heaps["tpcb_tellers"]
        branches = db.heaps["tpcb_branches"]
        account_idx = db.indexes["tpcb_account_idx"]
        teller_idx = db.indexes["tpcb_teller_idx"]
        branch_idx = db.indexes["tpcb_branch_idx"]

        txn = db.begin()
        for bid in range(self.num_branches):
            rid = yield from branches.insert(txn, _BRANCH.pack(bid, 0))
            yield from branch_idx.insert(txn, bid, pack_rid(rid))
        for tid in range(self.num_tellers):
            bid = tid // TELLERS_PER_BRANCH
            rid = yield from tellers.insert(txn, _TELLER.pack(tid, bid, 0))
            yield from teller_idx.insert(txn, tid, pack_rid(rid))
        for aid in range(self.num_accounts):
            bid = aid // self.accounts_per_branch
            rid = yield from accounts.insert(txn, _ACCOUNT.pack(aid, bid, 0))
            yield from account_idx.insert(txn, aid, pack_rid(rid))
        yield from db.commit(txn)
        yield from db.checkpoint()

    # -- the transaction ---------------------------------------------------------------

    def next_transaction(
        self, db: Database, rng: random.Random
    ) -> Tuple[str, Callable]:
        tid = rng.randrange(self.num_tellers)
        home_bid = tid // TELLERS_PER_BRANCH
        if self.num_branches > 1 and rng.random() < REMOTE_FRACTION:
            bid = rng.randrange(self.num_branches - 1)
            if bid >= home_bid:
                bid += 1
        else:
            bid = home_bid
        aid = bid * self.accounts_per_branch \
            + rng.randrange(self.accounts_per_branch)
        delta = rng.randint(-99_999, 99_999)

        def body(txn):
            yield from self._transfer(db, txn, aid, tid, home_bid, delta)

        return "account-update", body

    def _transfer(self, db: Database, txn, aid: int, tid: int, bid: int,
                  delta: int):
        accounts = db.heaps["tpcb_accounts"]
        tellers = db.heaps["tpcb_tellers"]
        branches = db.heaps["tpcb_branches"]
        history = db.heaps["tpcb_history"]
        account_idx = db.indexes["tpcb_account_idx"]
        teller_idx = db.indexes["tpcb_teller_idx"]
        branch_idx = db.indexes["tpcb_branch_idx"]

        packed = yield from account_idx.lookup(txn, aid)
        account_rid = unpack_rid(packed)
        raw = yield from accounts.read(txn, account_rid, LockMode.EXCLUSIVE)
        a_aid, a_bid, balance = _ACCOUNT.unpack(raw)
        yield from accounts.update(
            txn, account_rid, _ACCOUNT.pack(a_aid, a_bid, balance + delta)
        )

        packed = yield from teller_idx.lookup(txn, tid)
        teller_rid = unpack_rid(packed)
        raw = yield from tellers.read(txn, teller_rid, LockMode.EXCLUSIVE)
        t_tid, t_bid, t_balance = _TELLER.unpack(raw)
        yield from tellers.update(
            txn, teller_rid, _TELLER.pack(t_tid, t_bid, t_balance + delta)
        )

        packed = yield from branch_idx.lookup(txn, t_bid)
        branch_rid = unpack_rid(packed)
        raw = yield from branches.read(txn, branch_rid, LockMode.EXCLUSIVE)
        b_bid, b_balance = _BRANCH.unpack(raw)
        yield from branches.update(
            txn, branch_rid, _BRANCH.pack(b_bid, b_balance + delta)
        )

        yield from history.insert(
            txn, _HISTORY.pack(aid, tid, t_bid, delta)
        )

    # -- consistency audit ------------------------------------------------------------------

    def verify_consistency(self, db: Database):
        """Generator: returns True iff the bank balances reconcile."""
        txn = db.begin()
        accounts = yield from db.heaps["tpcb_accounts"].scan(txn)
        tellers = yield from db.heaps["tpcb_tellers"].scan(txn)
        branches = yield from db.heaps["tpcb_branches"].scan(txn)
        history = yield from db.heaps["tpcb_history"].scan(txn)
        yield from db.commit(txn)
        account_total = sum(_ACCOUNT.unpack(raw)[2] for __, raw in accounts)
        teller_total = sum(_TELLER.unpack(raw)[2] for __, raw in tellers)
        branch_total = sum(_BRANCH.unpack(raw)[1] for __, raw in branches)
        history_total = sum(_HISTORY.unpack(raw)[3] for __, raw in history)
        return (account_total == teller_total == branch_total
                == history_total)
