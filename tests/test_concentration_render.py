"""Market concentration, jurisdictions, and dialog rendering."""

import datetime as dt
import random

import pytest

from repro.cmps import quantcast
from repro.cmps.base import DialogButton, DialogDescriptor
from repro.cmps.render import render_dialog
from repro.core.concentration import (
    cmp_counts,
    hhi,
    hhi_series,
    jurisdiction_report,
)
from repro.web.worldgen import World, WorldConfig

MAY = dt.date(2020, 5, 15)


class TestHhi:
    def test_monopoly(self):
        assert hhi({"a": 10}) == 1.0

    def test_even_split(self):
        assert hhi({"a": 5, "b": 5}) == pytest.approx(0.5)

    def test_empty_market_rejected(self):
        with pytest.raises(ValueError):
            hhi({})
        with pytest.raises(ValueError):
            hhi({"a": 0})

    def test_bounds(self):
        value = hhi({"a": 7, "b": 2, "c": 1})
        assert 1 / 3 < value < 1.0


class TestWorldConcentration:
    def test_cmp_counts(self, world):
        counts = cmp_counts(world, MAY, max_rank=5_000)
        assert counts  # the market exists
        assert counts["onetrust"] > 0

    def test_hhi_series_over_study(self, world):
        dates = [
            dt.date(2018, 7, 1),
            dt.date(2019, 7, 1),
            dt.date(2020, 7, 1),
        ]
        series = hhi_series(world, dates, max_rank=5_000)
        assert len(series) == 3
        for _, value in series:
            # A handful of firms, none a monopoly.
            assert 0.2 < value < 0.7

    def test_jurisdictions_have_distinct_leaders(self, world):
        report = jurisdiction_report(world, MAY, max_rank=5_000)
        # Quantcast dominates EU+UK TLDs; OneTrust the rest (the
        # paper's "multiple distinct coalitions" observation).
        assert report.eu_uk_leader == "quantcast"
        assert report.other_leader == "onetrust"
        assert report.distinct_coalitions
        assert 0.2 < report.leader_share("eu-uk") <= 1.0

    def test_leader_share_requires_sites(self):
        from collections import Counter
        from repro.core.concentration import JurisdictionReport

        empty = JurisdictionReport(
            date=MAY, eu_uk_counts=Counter({"quantcast": 1}),
            other_counts=Counter(),
        )
        with pytest.raises(ValueError):
            empty.leader_share("other")


class TestRenderDialog:
    def test_direct_reject_box(self):
        rng = random.Random(0)
        dialog = next(
            d
            for d in (quantcast.sample_dialog(rng) for _ in range(100))
            if d.has_first_page_reject
        )
        text = render_dialog(dialog)
        assert "We value your privacy" in text
        assert "Powered by Quantcast" in text
        assert "I DO NOT ACCEPT" in text

    def test_more_options_second_page(self):
        rng = random.Random(1)
        dialog = next(
            d
            for d in (quantcast.sample_dialog(rng) for _ in range(100))
            if not d.has_first_page_reject and d.kind != "none"
        )
        page2 = render_dialog(dialog, page=2)
        assert "REJECT ALL" in page2

    def test_api_only_placeholder(self):
        d = DialogDescriptor(
            cmp_key="quantcast", kind="none", custom_api_only=True
        )
        assert "API only" in render_dialog(d)

    def test_footer_link_rendering(self):
        d = DialogDescriptor(
            cmp_key="onetrust",
            kind="footer-link",
            buttons=(DialogButton("Do Not Sell", "settings-link"),),
        )
        assert "Do Not Sell" in render_dialog(d)

    def test_box_is_rectangular(self):
        d = DialogDescriptor(
            cmp_key="trustarc",
            kind="banner",
            buttons=(DialogButton("Accept All", "accept-all"),),
        )
        lines = render_dialog(d).splitlines()
        widths = {len(line) for line in lines if line.startswith(("|", "+"))}
        assert len(widths) == 1


class TestHhiSeriesPins:
    """``hhi_series`` reads each rank's history once for all dates; the
    values are pinned to those of the per-date ``cmp_counts`` loop it
    replaced, float for float."""

    DATES = [
        dt.date(2010, 1, 1),  # before any adoption: skipped
        dt.date(2018, 3, 1),
        dt.date(2018, 7, 1),
        dt.date(2019, 7, 1),
        dt.date(2020, 7, 1),
    ]
    PINS = {
        3: [0.29591836734693877, 0.32569898869720404,
            0.2987110264973003, 0.33360168525003686],
        7: [0.2916666666666667, 0.26435555555555557,
            0.2746448979591836, 0.32447966218769964],
    }

    @pytest.mark.parametrize("seed", sorted(PINS))
    def test_pinned_values(self, seed):
        world = World(WorldConfig(seed=seed, n_domains=2_000))
        series = hhi_series(world, self.DATES, max_rank=2_000)
        assert series == list(zip(self.DATES[1:], self.PINS[seed]))
        assert len(world._cache) == 0
