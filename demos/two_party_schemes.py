#!/usr/bin/env python3
"""Atom-photon CHSH with two competing photonic readout schemes.

An excited emitter is entangled with whether a photon left at all, so one
side of the Bell test is a clean two-level system while the other is the
photonic mode measured either by homodyne sign binning or by a displaced
counter. With ideal devices the two schemes give different optimized CHSH
values. With lossy devices the more interesting question is which one
tolerates a worse photon counter, and the answer flips with the collection
efficiency: the displaced counter wins when little light is collected, the
homodyne readout wins when most of it is.
"""

from wbell.cli import PRESETS
from wbell.search import critical_efficiency, fix_parameter, optimize_free_parameters


def main():
    print("ideal devices, all angles and the pair amplitude optimized")
    for name in ("chsh-homodyne", "chsh-displacement"):
        res = optimize_free_parameters(PRESETS[name].build(2), n_starts=16)
        print(f"  {name:<20} CHSH {res.margin + 2.0:.4f}"
              f"  (theta {res.params['theta']:+.3f})")

    print()
    print("emitter readout 95% faithful, homodyne 98% efficient:")
    print("critical counter efficiency by collection efficiency")
    print(f"  {'coupling':>8}  {'homodyne':>9}  {'displaced':>9}")
    for eta_c in (0.65, 0.8):
        row = []
        for name in ("fig4-homodyne", "fig4-displacement"):
            spec = fix_parameter(PRESETS[name].build(2), "eta_c", eta_c)
            row.append(critical_efficiency(spec, "eta_spd", (0.0, 1.0),
                                           n_starts=8))
        winner = "displaced" if row[1] < row[0] else "homodyne"
        print(f"  {eta_c:>8.2f}  {row[0]:>9.4f}  {row[1]:>9.4f}"
              f"   {winner} copes with the worse counter")


if __name__ == "__main__":
    main()
