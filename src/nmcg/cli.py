"""Command-line front end.

Subcommands:
  present     print a presentation (text or JSON)
  verify      print verify.verify's verdicts at one (genus, boundary):
              at (g,1) the relators, each generator's boundary fixation
              and the catalogue; at (g,0) the catalogue, as each closed
              tier-1 relator is a (g,1) relator and B3, B4, D are entries
  abelianize  H_1 of a presented group via Smith normal form
  replay      replay recorded derivation scripts
  tables      dump the generator action tables that verify uses

Exit status: 0 on success, 1 if any verification check fails or the
reader of stdout closes it early, 2 on usage errors, a verify selection
that checks nothing included. Output is deterministic for fixed inputs.
"""

from __future__ import annotations

import argparse
import os
import sys

from . import pi1_action, replay
from .abelianized import h1
from .presentations import nonorientable_mcg_presentation
from .verify import verify


def _pres(args):
    return nonorientable_mcg_presentation(args.genus, args.boundary)


def _print_verdicts(verdicts) -> list:
    """Print each verdict as it comes; return their ok flags."""
    oks = []
    for v in verdicts:
        mark = "ok  " if v.ok else "FAIL"
        print(f"{mark} ({v.genus},{v.boundary}) tier {v.tier} {v.label}: {v.detail}")
        oks.append(v.ok)
    return oks


def _cmd_present(args) -> int:
    pres = _pres(args)
    print(pres.to_json() if args.format == "json" else pres.to_text(), end="")
    return 0


def _cmd_verify(args) -> int:
    g, n = args.genus, args.boundary
    oks = _print_verdicts(verify(g, n, None if args.tier == "all" else {int(args.tier)}))
    if not oks:  # a selection that checks nothing must not pass silently
        print(f"no tier-{args.tier} checks at ({g},{n})", file=sys.stderr)
        return 2
    return 0 if all(oks) else 1


def _cmd_abelianize(args) -> int:
    res = h1(_pres(args))
    print(f"H_1 = {res.label()}")
    print(f"free rank {res.free_rank}, torsion {list(res.torsion)}")
    return 0


def _cmd_replay(args) -> int:
    names = args.names or replay.available_scripts()
    memo = {}
    bad = 0
    for name in names:
        try:
            rep = replay.replay_script(name, memo)
        except Exception as e:  # mismatch, missing file, failed endpoint
            print(f"FAIL {name}: {e}")
            bad += 1
            continue
        extra = f" w^{rep.w_power}" if rep.tier == 2 else ""
        print(f"ok   {name}: ({rep.genus},{rep.boundary}) steps={rep.steps} "
              f"tier={rep.tier}{extra}")
    return 1 if bad else 0


def _cmd_tables(args) -> int:
    print(pi1_action.format_tables(args.genus), end="")
    return 0


def _add_gn(p, boundary=True):
    p.add_argument("-g", "--genus", type=int, required=True)
    if boundary:
        p.add_argument("-n", "--boundary", type=int, choices=(0, 1), required=True)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="nmcg",
        description="presentations of mapping class groups of nonorientable surfaces",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("present", help="print a presentation")
    _add_gn(p)
    p.add_argument("--format", choices=("text", "json"), default="text")
    p.set_defaults(fn=_cmd_present)

    p = sub.add_parser("verify", help="run tiered verification")
    _add_gn(p)
    p.add_argument("--tier", choices=("1", "2", "3", "all"), default="all")
    p.set_defaults(fn=_cmd_verify)

    p = sub.add_parser("abelianize", help="H_1 via Smith normal form")
    _add_gn(p)
    p.set_defaults(fn=_cmd_abelianize)

    p = sub.add_parser("replay", help="replay derivation scripts")
    p.add_argument("names", nargs="*", help="script names (default: all)")
    p.set_defaults(fn=_cmd_replay)

    p = sub.add_parser("tables", help="dump generator action tables")
    _add_gn(p, boundary=False)
    p.set_defaults(fn=_cmd_tables)

    args = parser.parse_args(argv)
    if getattr(args, "genus", 1) < 1:
        parser.error("genus must be >= 1")
    if getattr(args, "boundary", None) == 0 and args.command in ("verify",) and args.genus < 4:
        parser.error("closed-surface verification needs genus >= 4")
    unknown = [x for x in getattr(args, "names", ()) if x not in replay.available_scripts()]
    if unknown:
        parser.error(f"no replay script named {', '.join(map(repr, unknown))}")
    try:
        rc = args.fn(args)
        sys.stdout.flush()  # a closed pipe raises here, not at interpreter exit
    except BrokenPipeError:
        # the reader went away (nmcg verify ... | head): send the rest of
        # stdout to devnull so the exit-time flush cannot raise again
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return 1
    return rc


if __name__ == "__main__":
    raise SystemExit(main())
