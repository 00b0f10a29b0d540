"""Seeded inputs: auction-site documents and query streams.

The benchmark owns its generator (instead of borrowing the program's
``repro.datasets.synth``) so that a change to the program can never change
what the benchmark feeds it: the same ``--seed`` always yields the same
documents, the same query constants, the same Zipf draws and the same
arrival schedule.  Every random choice goes through :func:`rng`, which
derives an independent stream per purpose from the run seed.

The documents have the XMark shape the paper measures (people, items in
regions, closed auctions) and the properties the workloads depend on:
unique person names (needle selections), a low-cardinality ``location``
(dictionary-coded equality), numeric ``age``/``quantity`` (broad range
selections) and two foreign keys (``buyer`` -> person, ``itemref`` ->
item) for value joins.
"""

from __future__ import annotations

import bisect
import itertools
import random

REGIONS = ("africa", "asia", "europe", "namerica")
LOCATIONS = ("United States", "Germany", "Japan", "Kenya", "Brazil",
             "Australia")
EDUCATION = ("High School", "College", "Graduate School")
INTERESTS = ("auctions", "astronomy", "databases", "music", "hiking")


def rng(seed: int, *purpose) -> random.Random:
    """An independent, reproducible random stream for one purpose."""
    return random.Random(":".join(str(p) for p in (seed, *purpose)))


def auction_xml(n_people: int, r: random.Random,
                closed_auctions: bool = True) -> str:
    """One auction-site document with ``n_people`` people, ``n/2`` items
    and ``n/4`` closed auctions (none when ``closed_auctions`` is off)."""
    n_items = max(1, n_people // 2)
    n_auctions = max(1, n_people // 4) if closed_auctions else 0
    out = ["<site><regions>"]
    for k, region in enumerate(REGIONS):
        out.append(f"<{region}>")
        for i in range(k, n_items, len(REGIONS)):
            out.append(
                f'<item id="item{i}">'
                f"<location>{r.choice(LOCATIONS)}</location>"
                f"<quantity>{r.randint(1, 9)}</quantity>"
                f"<name>thing {i}</name>"
                f"<payment>{r.choice(('Cash', 'Creditcard'))}</payment>"
                "</item>")
        out.append(f"</{region}>")
    out.append("</regions><people>")
    for i in range(n_people):
        out.append(f'<person id="person{i}"><name>name {i}</name>'
                   f"<emailaddress>mailto:person{i}@example.com"
                   "</emailaddress>")
        if r.random() < 0.3:
            out.append(f"<phone>+1 555 {i:07d}</phone>")
        out.append(f"<profile><age>{r.randint(18, 80)}</age>")
        if r.random() < 0.5:
            out.append(f"<education>{r.choice(EDUCATION)}</education>")
        for _ in range(r.randrange(3)):
            out.append(f"<interest>{r.choice(INTERESTS)}</interest>")
        out.append("</profile></person>")
    out.append("</people><closed_auctions>")
    for _ in range(n_auctions):
        out.append(
            "<closed_auction>"
            f"<price>{r.randint(5, 500)}</price>"
            f"<buyer>person{r.randrange(n_people)}</buyer>"
            f"<itemref>item{r.randrange(n_items)}</itemref>"
            f"<date>2005-{r.randint(1, 12):02d}-{r.randint(1, 28):02d}"
            "</date></closed_auction>")
    out.append("</closed_auctions></site>")
    return "".join(out)


class Zipf:
    """Ranks ``0..n-1`` with probability proportional to
    ``1 / (rank + 1) ** s``: a few constants dominate, so a stream of them
    repeats and hits a result cache.

    :meth:`sequence` samples by a golden-ratio sequence from a seeded
    offset instead of independent draws: every window of the sequence
    then holds each rank in very nearly its Zipf share, so the share of
    repeated constants -- and with it the cache hit rate -- is the same
    for every seed, while which constant comes when still depends on it.
    """

    _PHI = (5 ** 0.5 - 1) / 2

    def __init__(self, n: int, s: float):
        self.cum = list(itertools.accumulate(1.0 / (k + 1) ** s
                                             for k in range(n)))

    def sequence(self, count: int, r: random.Random) -> list[int]:
        u0, total = r.random(), self.cum[-1]
        return [bisect.bisect_right(self.cum, ((u0 + k * self._PHI) % 1.0)
                                    * total)
                for k in range(count)]


# -- query templates ---------------------------------------------------------
# Each template maps constants to query text.  Within a template every
# constant selects about the same share of the document (ages and
# locations are uniform), so a template's cost barely depends on the draw.

def q_age_band(lo: int, hi: int, tag: str = "r") -> str:
    """People aged ``lo`` to ``hi - 1``; ``tag`` names the result element,
    so queries of equal cost can differ in their text."""
    return ("for $p in /site/people/person "
            f"where $p/profile/age >= '{lo}' and $p/profile/age < '{hi}' "
            f"return <{tag}>{{$p/name}}{{$p/emailaddress}}</{tag}>")


def q_items_at(location: str) -> str:
    return ("for $i in /site/regions//item "
            f"where $i/location = '{location}' "
            "return <hit>{$i/name}{$i/quantity}{$i/payment}</hit>")


def q_xpath_values(lo: int, hi: int) -> str:
    return (f"/site/people/person[profile/age >= '{lo}']"
            f"[profile/age < '{hi}']/emailaddress/text()")


def q_needle(person: int) -> str:
    return ("for $p in /site/people/person "
            f"where $p/name = 'name {person}' "
            "return <r>{$p/emailaddress}{$p/profile/age}</r>")


def q_selective_join(person: int) -> str:
    return ("for $c in /site/closed_auctions/closed_auction, "
            "$p in /site/people/person "
            f"where $p/name = 'name {person}' and $c/buyer = $p/@id "
            "return <pair>{$p/name}{$c/price}</pair>")


def q_dict_eq(location: str, qty: int) -> str:
    return ("for $i in /site/regions//item "
            f"where $i/location = '{location}' and $i/quantity = '{qty}' "
            "return <q>{$i/name}</q>")


def q_xpath_needle(person: int) -> str:
    return f"/site/people/person[name = 'name {person}']/emailaddress"


def q_join_buyer() -> str:
    return ("for $c in /site/closed_auctions/closed_auction, "
            "$p in /site/people/person where $c/buyer = $p/@id "
            "return <pair>{$p/name}{$c/price}</pair>")


def q_join_buyer_age(age: int) -> str:
    return ("for $c in //closed_auction, $p in //person "
            f"where $p/profile/age > '{age}' and $c/buyer = $p/@id "
            "return <r>{$p/emailaddress}{$c/date}</r>")


def q_join_item(location: str) -> str:
    return ("for $c in /site/closed_auctions/closed_auction, "
            "$i in /site/regions//item "
            f"where $i/location = '{location}' and $c/itemref = $i/@id "
            "return <sold>{$i/name}{$c/price}</sold>")
