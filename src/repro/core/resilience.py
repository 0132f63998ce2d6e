"""Client-side resilience: retry, backoff, and hedged replica fallback.

The paper assumes an unreliable transport and pushes recovery to the
client: "the client must retry" when a request is silently lost (§2.3),
and randomized routing makes each retry likely to take a different path
around the node that swallowed the last one.  :class:`RetryPolicy`
packages that behaviour for :meth:`repro.core.network.PastNetwork.lookup`
and :meth:`~repro.core.network.PastNetwork.insert`:

* a per-attempt timeout charged in *virtual* time — a lost message is
  only discovered by the client's timer expiring;
* exponential backoff between attempts with seeded jitter (all draws
  come from the network's dedicated client-retry RNG, so runs replay);
* randomized routing on retries (§2.3) so a retry is not doomed to
  repeat a bad path;
* hedged lookups: when a request *is* delivered but finds no replica en
  route (holders crashed or degraded mid-repair), the client falls back
  to asking each of the k replica holders directly, in replica-set
  order, until one answers.

The same failover machinery doubles as the *integrity* escape hatch:
every serve is a verified read (§2.2), so a holder whose copy turns out
corrupt refuses to answer and the retry/hedge loop moves
on to the next holder — ``LookupResult.integrity_failovers`` counts how
often a lookup succeeded only because of that (see
:mod:`repro.core.integrity` for the repair side).

A ``policy=None`` call (the default everywhere) takes the exact
pre-existing code path — no retry state, no RNG draws — so fault-free
runs stay byte-identical with or without this module.
"""

from __future__ import annotations

import random
from dataclasses import dataclass


#: Time a client waits before concluding an attempt's request or reply
#: was lost (the paper's transport gives no failure signal), in virtual
#: seconds.
ATTEMPT_TIMEOUT = 1.0
#: Backoff before the first retry; each further retry multiplies it by
#: ``BACKOFF_FACTOR`` and scales it by ``1 + JITTER * U(0, 1)``.
BASE_BACKOFF = 0.25
BACKOFF_FACTOR = 2.0
JITTER = 0.5
#: Total virtual time a client spends on one operation, backoffs and
#: timeouts included.
OP_DEADLINE = 60.0


@dataclass(frozen=True)
class RetryPolicy:
    """How a client recovers from lost or unanswered requests.

    ``max_attempts`` counts route attempts (1 = no retries).  Timeouts,
    backoff and the operation deadline are the module constants above;
    retries always route randomly (§2.3) and a delivered lookup that
    found no replica always hedges across the k replica holders.
    """

    max_attempts: int = 5

    def __post_init__(self):
        if self.max_attempts < 1:
            raise ValueError("max_attempts must be at least 1")

    def backoff(self, retry_index: int, rng: random.Random) -> float:
        """Backoff before the ``retry_index``-th retry (1-based), jittered."""
        delay = BASE_BACKOFF * BACKOFF_FACTOR ** (retry_index - 1)
        return delay * (1.0 + JITTER * rng.random())
