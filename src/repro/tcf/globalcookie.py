"""Global consent storage and cross-site consent sharing.

The TCF v1 "global scope" stores the consent cookie under the CMP's
``.consensu.org`` subdomain, so one decision is shared across every
website using that CMP (Figure 2: "forward consent decisions to ad-tech
vendors and also share it globally across websites"). The paper probes
this directly: it fetches ``https://api.quantcast.mgr.consensu.org/
CookieAccess``, which returns the user's existing Quantcast TCF cookie,
to filter repeat visitors out of the timing experiment (Section 3.2).

This module models that machinery:

* :class:`GlobalConsentStore` -- the per-browser cookie jar scoped to
  ``.consensu.org``, keyed by CMP;
* :class:`CookieAccessEndpoint` -- the ``CookieAccess`` probe;
* :func:`consent_coalition` -- the set of sites across which one stored
  decision is reused, the phenomenon Woods & Böhme call the
  "commodification of consent".
"""

from __future__ import annotations

import datetime as dt
from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Tuple

from repro.cmps.base import cmp_by_key
from repro.net.http import Cookie
from repro.tcf.consentstring import ConsentString, decode_consent_string

#: The shared parent domain of TCF v1 global consent cookies.
CONSENSU_SUFFIX = "mgr.consensu.org"

#: Name of the global consent cookie.
GLOBAL_COOKIE_NAME = "euconsent"


class GlobalConsentStore:
    """One browser's global (cross-site) consent state.

    TCF v1 global scope means the cookie lives under the CMP's
    ``<cmp>.mgr.consensu.org`` origin: any site embedding that CMP can
    read the decision back through the CMP's iframe. The store therefore
    keys decisions by CMP, not by website.
    """

    def __init__(self) -> None:
        self._by_cmp: Dict[str, ConsentString] = {}

    def __len__(self) -> int:
        return len(self._by_cmp)

    def __contains__(self, cmp_key: str) -> bool:
        return cmp_key in self._by_cmp

    def record_decision(self, cmp_key: str, consent: ConsentString) -> Cookie:
        """Store a decision made on *any* site embedding *cmp_key*.

        Returns the cookie as the browser would persist it.
        """
        model = cmp_by_key(cmp_key)  # validates the key
        self._by_cmp[cmp_key] = consent
        return Cookie(
            name=GLOBAL_COOKIE_NAME,
            value=consent.encode(),
            domain=f".{model.key}.{CONSENSU_SUFFIX}",
            secure=True,
            max_age=86400 * 390,  # ~13 months
        )

    def stored_consent(self, cmp_key: str) -> Optional[ConsentString]:
        """The decision a new site embedding *cmp_key* would inherit."""
        return self._by_cmp.get(cmp_key)

    def clear(self, cmp_key: Optional[str] = None) -> None:
        if cmp_key is None:
            self._by_cmp.clear()
        else:
            self._by_cmp.pop(cmp_key, None)

    @classmethod
    def from_cookies(cls, cookies: Iterable[Cookie]) -> "GlobalConsentStore":
        """Reconstruct the store from a browser cookie jar."""
        store = cls()
        for cookie in cookies:
            if cookie.name != GLOBAL_COOKIE_NAME:
                continue
            domain = cookie.domain.lstrip(".")
            if not domain.endswith(CONSENSU_SUFFIX):
                continue
            cmp_key = domain[: -len(CONSENSU_SUFFIX) - 1]
            try:
                cmp_by_key(cmp_key)
            except KeyError:
                continue
            store._by_cmp[cmp_key] = decode_consent_string(cookie.value)
        return store


@dataclass(frozen=True)
class CookieAccessResult:
    """Response of the ``CookieAccess`` probe."""

    cmp_key: str
    has_cookie: bool
    consent: Optional[ConsentString] = None

    @property
    def is_repeat_visitor(self) -> bool:
        """Repeat visitors are excluded from the timing experiment: the
        CMP stores the first decision and shows no further dialogs."""
        return self.has_cookie


class CookieAccessEndpoint:
    """The ``https://api.<cmp>.mgr.consensu.org/CookieAccess`` probe."""

    def __init__(self, store: GlobalConsentStore):
        self._store = store

    def fetch(self, cmp_key: str) -> CookieAccessResult:
        consent = self._store.stored_consent(cmp_key)
        return CookieAccessResult(
            cmp_key=cmp_key,
            has_cookie=consent is not None,
            consent=consent,
        )


def consent_coalition(
    world, cmp_key: str, date: dt.date, *, max_rank: Optional[int] = None
) -> Tuple[str, ...]:
    """Domains across which one global consent decision is shared.

    One decision made on any member of the coalition is silently reused
    by every other member (Section 4.1: "As CMPs share consent across
    websites, this unreliable consent signal will then be re-used by
    other websites and third parties").
    """
    limit = max_rank if max_rank is not None else world.n_domains
    members: List[str] = []
    for rank in range(1, limit + 1):
        site = world.site(rank)
        if site.cmp_on(date) == cmp_key:
            members.append(site.domain)
    return tuple(members)


def shared_consent_reach(
    world, date: dt.date, *, max_rank: Optional[int] = None
) -> Dict[str, int]:
    """Coalition sizes per CMP -- how far one click reaches."""
    limit = max_rank if max_rank is not None else world.n_domains
    reach: Dict[str, int] = {}
    for rank in range(1, limit + 1):
        key = world.cmp_on(rank, date)
        if key is not None:
            reach[key] = reach.get(key, 0) + 1
    return reach
