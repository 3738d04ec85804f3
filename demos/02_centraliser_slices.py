"""Enumerating centraliser slices by exhaustive search.

The centraliser of a set of operations holds everything that commutes with
all of them.  Low-arity slices test all k^(k^n) value tables; the ternary
slice is assembled from compatible triples of binary members (its three
identification minors) instead of testing all 3^27 tables.  Each triple
fixes 21 cells and the 6 cells with pairwise distinct arguments range over
all 729 fillings.  At every arity T is decided by exact pattern counting.

Run with --ternary to include the ternary enumeration (about ten seconds).
"""
import sys
import time

from cloneops import (Domain, OperationSet, enumerate_centraliser,
                      enumerate_polymorphisms, family_op, graph_of, snow_t)

dom = Domain(3)
t = snow_t(3)
ts = OperationSet.from_operations(dom, [t])

unary = enumerate_centraliser(ts, 1)
print("unary slice:", unary.count(1), "operations")
for op in unary.members(1):
    print("  ", op.table)

start = time.time()
binary = enumerate_centraliser(ts, 2)
print(f"\nbinary slice: {binary.count(2)} operations ({time.time() - start:.2f}s)")

# The slice decomposes into two projections, a one-point family z_a and a
# bordered family f_{a,(b,c,d,e)}; spot-check two members.
print("z_1 in slice:", family_op("z", (1,), dom) in binary)
print("f_{0,(2,2,2,2)} in slice:", family_op("fam", (0, (2, 2, 2, 2)), dom) in binary)

# Commuting with T is preserving graph(T), so polymorphisms agree.
polys = enumerate_polymorphisms([graph_of(t)], 2)
print("polymorphisms of graph(T) give the same slice:", polys == binary)

if "--ternary" in sys.argv:
    start = time.time()
    ternary, stats = enumerate_centraliser(ts, 3, return_stats=True)
    print(f"\nternary slice: {ternary.count(3)} operations "
          f"({time.time() - start:.1f}s, {stats.candidates} candidates explored, "
          f"bound {65 ** 3 * 3 ** 6})")
    for f in stats.details["filters"]:
        print(f"  {f['test']} test of member {f['member']}: {f['in']} -> {f['out']}")
else:
    print("\n(pass --ternary to enumerate the 1,048,578-member ternary slice)")
