"""Render a gallery of 2-D membership slices as TSV files.

Each slice fixes all but two real coordinates of a domain point and rasters
the remaining plane through the command-line classifier, so the files here
are byte-identical to what `mublocks slice` prints.  Load them in gnuplot or
pandas; code column is 0 = interior, 1 = boundary of the closure,
2 = outside.
"""

import os
import sys

from mublocks.cli import main

OUT_DIR = os.path.join(os.path.dirname(__file__), "..", "slices_out")
GRID = "121"  # 121 x 121 points per slice

# (filename stem, argv tail) - two raster axes like "Re(a),Im(a)", every
# other coordinate pinned through --fixed.
SLICES = [
    ("g2_real", ["g2", "--axes", "Re(s),Re(p)",
                 "--range", "-2.2:2.2,-1.2:1.2"]),
    ("tetra_x1x2_real", ["tetra", "--axes", "Re(x1),Re(x2)",
                         "--fixed", "x3=0",
                         "--range", "-1.2:1.2,-1.2:1.2"]),
    ("penta_a_plane", ["penta", "--axes", "Re(a),Im(a)",
                       "--fixed", "s=0.9,p=0.4",
                       "--range", "-1.6:1.6,-1.6:1.6"]),
    ("f_a_plane_s0", ["f", "--axes", "Re(a),Im(a)",
                      "--fixed", "x=0.25,p=0,s=0",
                      "--range", "-1.2:1.2,-1.2:1.2"]),
    ("hexa_a_plane", ["h", "--axes", "Re(a),Im(a)",
                      "--fixed", "x1=0.3,x2=0.2,x3=0.1",
                      "--range", "-1.4:1.4,-1.4:1.4"]),
    ("lie_ball_z1z2_real", ["l4", "--axes", "Re(z1),Re(z2)",
                            "--fixed", "z3=0,z4=0",
                            "--range", "-1.2:1.2,-1.2:1.2"]),
]


if __name__ == "__main__":
    os.makedirs(OUT_DIR, exist_ok=True)
    failures = 0
    for stem, tail in SLICES:
        path = os.path.join(OUT_DIR, stem + ".tsv")
        argv = ["slice", *tail, "--grid", GRID, "--out", path]
        code = main(argv)
        if code != 0:
            print(f"{stem}: slice command exited {code}", file=sys.stderr)
            failures += 1
            continue
        with open(path) as fh:
            n_rows = sum(1 for _ in fh) - 1
        print(f"{stem}: wrote {n_rows} rows -> {path}")
    sys.exit(1 if failures else 0)
