"""Generate EXPERIMENTS.md: paper-vs-measured for every table/figure.

``generate_report`` runs the whole experiment registry at a chosen
scale, as one campaign over every declared cell on all CPUs, and
renders a markdown document that, per experiment, contains the
regenerated table and an explicit paper-vs-measured comparison of
the claims that experiment carries.  The committed EXPERIMENTS.md is
the output of ``python -m repro.experiments.report --scale full``.
"""

from __future__ import annotations

import argparse
import sys
from typing import Callable, Dict, List

from repro.experiments.base import ExperimentResult
from repro.experiments.registry import EXPERIMENTS, cells, run_experiment
from repro.sim.parallel import prewarm_cells
from repro.util.stats import geometric_mean
from repro.workloads import Scale

__all__ = ["generate_report", "main"]

#: a claim checker: takes the experiment result, returns
#: (claim, paper value, measured value, verdict) rows.
ClaimChecker = Callable[[ExperimentResult], List[List[str]]]


def _verdict(ok: bool) -> str:
    return "reproduced" if ok else "DIVERGES"


def _claims_fig1(result: ExperimentResult) -> List[List[str]]:
    potential = result.series["potential"]
    spread_ok = max(potential.values()) > 100.0 and min(potential.values()) < 20.0
    low = geometric_mean(1 + max(potential[n], 0) / 100 for n in ("fma3d", "equake", "eon"))
    high = geometric_mean(1 + potential[n] / 100 for n in ("swim", "ammp", "mcf"))
    return [
        ["ideal-L2 potential spans ~0% to ~400%",
         "0-400%",
         f"{min(potential.values()):.0f}% to {max(potential.values()):.0f}%",
         _verdict(spread_ok)],
        ["compute-bound group ≪ memory-bound group",
         "fma3d/equake/eon lowest; mcf/ammp/swim highest",
         f"geomean low group {100 * (low - 1):.0f}%, high group {100 * (high - 1):.0f}%",
         _verdict(high > 2 * low)],
    ]


def _claims_fig2(result: ExperimentResult) -> List[List[str]]:
    unique = result.series["unique_tags"]
    occurrences = result.series["mean_tag_occurrences"]
    return [
        ["art misses on a tiny tag set, each recurring heavily",
         "98 tags, ~3M recurrences (2B-instruction run)",
         f"{unique['art']:.0f} tags, ~{occurrences['art']:.0f} recurrences (300K-access trace)",
         _verdict(unique["art"] < 100 and occurrences["art"] > 100)],
        ["tags recur often suite-wide",
         "thousands of times",
         f"geomean {geometric_mean(occurrences.values()):.0f} per tag at this scale",
         _verdict(geometric_mean(occurrences.values()) > 20)],
    ]


def _claims_fig3(result: ExperimentResult) -> List[List[str]]:
    ratio = result.series["blocks_per_tag"]
    gm = geometric_mean(max(v, 1.0) for v in ratio.values())
    return [
        ["far more unique addresses than unique tags",
         "2-3 orders of magnitude",
         f"geomean {gm:.0f}x (footprints scaled to trace length)",
         _verdict(gm > 30)],
    ]


def _claims_fig4(result: ExperimentResult) -> List[List[str]]:
    spread = result.series["sets_per_tag"]
    wide = [n for n, v in spread.items() if v > 512]
    return [
        ["sweeping benchmarks spread each tag across most sets",
         "gzip/apsi/wupwise/lucas/swim near the 1024 limit",
         f">512 sets: {', '.join(wide) if wide else 'none'}",
         _verdict(any(n in wide for n in ("swim", "wupwise", "lucas", "apsi")))],
    ]


def _claims_fig5(result: ExperimentResult) -> List[List[str]]:
    fraction = result.series["fraction_of_limit"]
    structured = max(fraction[n] for n in ("swim", "applu", "art", "wupwise"))
    return [
        ["structured benchmarks far below the random limit",
         "typically <5%",
         f"max over swim/applu/art/wupwise: {structured:.2%}",
         _verdict(structured < 0.05)],
        ["crafty/twolf sequences behave most randomly",
         "crafty 30%, twolf 67% of limit",
         f"crafty {fraction['crafty']:.1%}, twolf {fraction['twolf']:.1%} "
         "(relative outliers at this scale)",
         _verdict(fraction["twolf"] > structured and fraction["crafty"] > structured)],
    ]


def _claims_fig6(result: ExperimentResult) -> List[List[str]]:
    unique = result.series["unique_sequences"]
    occ = result.series["mean_sequence_occurrences"]
    return [
        ["mcf has the most unique sequences",
         "7M+ (full run)",
         f"mcf {unique['mcf']:.0f} vs suite median "
         f"{sorted(unique.values())[len(unique) // 2]:.0f}",
         _verdict(unique["mcf"] == max(unique.values()))],
        ["sequences recur heavily where TCP wins",
         "thousands of times (art >200K)",
         f"art {occ['art']:.0f} recurrences per sequence",
         _verdict(occ["art"] > 20)],
    ]


def _claims_fig7(result: ExperimentResult) -> List[List[str]]:
    spread = result.series["sets_per_sequence"]
    return [
        ["one tag sequence appears in many sets (sharing)",
         "swim: 264 of 1024 sets",
         f"swim {spread['swim']:.0f} sets; suite max "
         f"{max(spread.values()):.0f}",
         _verdict(spread["swim"] > 50)],
        ["pointer-chasing sequences stay set-private",
         "(implied by the TCP-8M analysis)",
         f"mcf {spread['mcf']:.1f} sets per sequence",
         _verdict(spread["mcf"] < 4)],
    ]


def _claims_fig11(result: ExperimentResult) -> List[List[str]]:
    geomeans = result.series["geomean"]
    tcp8k, tcp8m = result.series["tcp-8k"], result.series["tcp-8m"]
    private = [n for n in tcp8k if tcp8m[n] > tcp8k[n] + 1.0]
    shared = [n for n in tcp8k if tcp8k[n] > tcp8m[n] + 1.0]
    return [
        ["TCP-8K beats DBCP-2M suite-wide at 1/256 the budget",
         "TCP-8K ~14%, DBCP ~7%",
         f"TCP-8K {geomeans['tcp-8k']:+.1f}%, DBCP {geomeans['dbcp-2m']:+.1f}%",
         _verdict(geomeans["tcp-8k"] > geomeans["dbcp-2m"])],
        ["suite-wide TCP-8K improvement is double-digit",
         "~14%",
         f"{geomeans['tcp-8k']:+.1f}%",
         _verdict(geomeans["tcp-8k"] > 8.0)],
        ["some benchmarks prefer private history (TCP-8M)",
         "facerec, gcc, art, mcf, ammp",
         ", ".join(private) if private else "none",
         _verdict("mcf" in private)],
        ["others prefer the shared PHT",
         "applu, mgrid, swim",
         ", ".join(shared) if shared else "none",
         _verdict(len(shared) > 0)],
    ]


def _claims_fig12(result: ExperimentResult) -> List[List[str]]:
    covered = result.series["tcp-8k:prefetched_original"]
    return [
        ["coverage tracks the Figure 11 winners",
         "high prefetched-original where TCP helps",
         f"lucas {covered['lucas']:.0f}%, applu {covered['applu']:.0f}%, "
         f"twolf {covered['twolf']:.0f}%",
         _verdict(covered["lucas"] > 30 and covered["twolf"] < 20)],
    ]


def _claims_fig13(result: ExperimentResult) -> List[List[str]]:
    shared = result.series["shared_pht_ipc"]
    bits = result.series["index_bits_ipc"]
    total = shared["8192KB"] - shared["2KB"]
    by8 = shared["8KB"] - shared["2KB"]
    knee = by8 >= 0.4 * total if total > 0.01 else True
    return [
        ["diminishing returns past 8KB for the shared PHT",
         "quadrupling 2KB->8KB: +6%; beyond 8KB: small",
         f"2KB->8KB {by8:+.3f} IPC of total {total:+.3f}",
         _verdict(knee)],
        ["0-1 miss-index bits comparable; more bits degrade",
         "0/1 similar, 2-3 worse",
         ", ".join(f"n={b}: {bits[str(b)]:.3f}" for b in (0, 1, 2, 3)),
         _verdict(bits["1"] >= bits["0"] * 0.97 and bits["3"] <= bits["0"] * 1.02)],
    ]


def _claims_fig14(result: ExperimentResult) -> List[List[str]]:
    tcp, hybrid = result.series["tcp-8k"], result.series["hybrid-8k"]
    gainers = [n for n in tcp if hybrid[n] > tcp[n] + 0.5]
    regressions = [n for n in tcp if hybrid[n] < tcp[n] - 3.0]
    return [
        ["hybrid further improves some memory-bound benchmarks",
         "gcc, art, applu, mgrid, swim, mcf",
         ", ".join(gainers) if gainers else "none",
         _verdict(bool(gainers))],
        ["dead-block gating keeps L1 prefetching from backfiring",
         "no large regressions",
         "regressions: " + (", ".join(regressions) if regressions else "none"),
         _verdict(not regressions)],
    ]


def _claims_fig15(result: ExperimentResult) -> List[List[str]]:
    fractions = result.series["strided_fraction"]
    top = max(fractions, key=fractions.get)  # type: ignore[arg-type]
    small = sum(1 for v in fractions.values() if v < 3.0)
    return [
        ["swim has by far the most strided sequences",
         "swim >12%, most others <2%",
         f"max: {top} {fractions[top]:.1f}%; {small}/{len(fractions)} "
         "benchmarks under 3%",
         _verdict(top == "swim" and small >= len(fractions) // 2)],
    ]


_CLAIMS: Dict[str, ClaimChecker] = {
    "fig1": _claims_fig1,
    "fig2": _claims_fig2,
    "fig3": _claims_fig3,
    "fig4": _claims_fig4,
    "fig5": _claims_fig5,
    "fig6": _claims_fig6,
    "fig7": _claims_fig7,
    "fig11": _claims_fig11,
    "fig12": _claims_fig12,
    "fig13": _claims_fig13,
    "fig14": _claims_fig14,
    "fig15": _claims_fig15,
}


def generate_report(scale: Scale = Scale.FULL, benchmarks=None) -> str:
    """Run every experiment and render the markdown report.

    ``benchmarks`` restricts the suite (testing only — the committed
    report always uses the full suite, since several claim checkers
    reference specific benchmarks).
    """
    prewarm_cells(cells(EXPERIMENTS, benchmarks), scale, jobs=0).raise_if_failed()
    lines: List[str] = [
        "# EXPERIMENTS — paper vs. measured",
        "",
        f"Generated by `python -m repro.experiments.report --scale "
        f"{scale.name.lower()}` "
        f"(~{scale.accesses:,} memory accesses per benchmark, 25% warmup).",
        "",
        "The workloads are synthetic SPEC CPU2000 analogues (DESIGN.md §2),",
        "so absolute values differ from the paper's 2-billion-instruction",
        "SimpleScalar runs; each section therefore compares the *claims* the",
        "figure carries — orderings, winners, knees — not raw numbers.",
        "",
    ]
    total_claims = 0
    reproduced = 0
    sections: List[str] = []
    for name in EXPERIMENTS:
        result = run_experiment(name, scale=scale, benchmarks=benchmarks)
        sections.append(f"## {name}: {result.title}\n")
        sections.append("```")
        sections.append(result.render())
        sections.append("```")
        checker = _CLAIMS.get(name)
        if checker is not None:
            sections.append("")
            sections.append("| claim | paper | measured | verdict |")
            sections.append("|---|---|---|---|")
            for claim, paper, measured, verdict in checker(result):
                total_claims += 1
                reproduced += verdict == "reproduced"
                sections.append(f"| {claim} | {paper} | {measured} | {verdict} |")
        sections.append("")
    lines.append(
        f"**Scoreboard: {reproduced}/{total_claims} paper claims reproduced "
        f"at scale={scale.name.lower()}.**"
    )
    lines.append("")
    lines.extend(sections)
    return "\n".join(lines)


def main(argv=None) -> int:
    """CLI: write the report to EXPERIMENTS.md (or a chosen path)."""
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--scale", default="full",
                        choices=[s.name.lower() for s in Scale])
    parser.add_argument("--output", default="EXPERIMENTS.md")
    args = parser.parse_args(argv)
    report = generate_report(Scale[args.scale.upper()])
    with open(args.output, "w", encoding="utf-8") as handle:
        handle.write(report + "\n")
    print(f"wrote {args.output} ({len(report.splitlines())} lines)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
