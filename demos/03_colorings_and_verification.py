#!/usr/bin/env python3
"""The three path-product colorings and how the verifier checks them.

color_path_empty colors P_n[E_k] with 2k+1 colors (6 when k=2) by cycling
rainbow-X / monochromatic / rainbow-in-Y / monochromatic layers.
color_path_rainbow keeps every layer rainbow with ceil(7k/2) colors.
color_path_complete colors P_n[K_k] with 4k colors by blowing up a four-letter
palindrome-free word.  The verifier hunts repetitively colored simple paths
up to a bound; with the bound at |V| the check is exact.
"""

from thuelex import (
    COMPLETE,
    EMPTY,
    build_path,
    build_rooted_tree,
    check_path4_trichotomy,
    color_path_complete,
    color_path_empty,
    color_path_rainbow,
    color_tree_complete,
    find_repetitive_path,
    is_rainbow,
    is_walk_nonrepetitive,
    layer_color_sets,
    lex_product,
)


def show_layers(col, k, n):
    return " | ".join(
        ",".join(str(c) for c in col.colors[b * k : (b + 1) * k]) for b in range(n)
    )


# Theorem-1-style coloring of P_8[E_3]: palette 2k+1 = 7.
k, n = 3, 8
pg = lex_product(build_path(n), EMPTY, k)
col = color_path_empty(n, k)
print(f"P_{n}[E_{k}] with {col.palette} colors:")
print(" ", show_layers(col, k, n))
witness = find_repetitive_path(pg.view, col.colors, 12)
print(f"  repetitive path within 12 vertices: {witness}")
print(f"  every 4-path satisfies the disjoint-layers trichotomy: "
      f"{check_path4_trichotomy(pg, col.colors)}")

# Exact verification is feasible on P_6[E_2] (12 vertices).
pg2 = lex_product(build_path(6), EMPTY, 2)
col2 = color_path_empty(6, 2)
print(f"\nP_6[E_2] with {col2.palette} colors, exact check: "
      f"{find_repetitive_path(pg2.view, col2.colors, 12) is None}")

# Rainbow coloring of P_12[E_2]: ceil(7k/2) = 7 colors, every layer rainbow.
col3 = color_path_rainbow(12, 2)
pg3 = lex_product(build_path(12), EMPTY, 2)
print(f"\nrainbow P_12[E_2] with {col3.palette} colors, "
      f"rainbow={is_rainbow(pg3, col3.colors)}:")
print(" ", show_layers(col3, 2, 12))

# 4k-coloring of P_10[K_2]; layer color sets are the four disjoint blocks.
col4 = color_path_complete(10, 2)
pg4 = lex_product(build_path(10), COMPLETE, 2)
sets = layer_color_sets(pg4, col4.colors)
print(f"\nP_10[K_2] with {col4.palette} colors; layer sets:")
print(" ", [sorted(s) for s in sets])

# Trees: level-driven coloring of T_3,6[K_1], checked at the 12-vertex bound.
tree, meta = build_rooted_tree(3, 2, 5)
col5 = color_tree_complete(tree, meta, 1)
print(f"\nT_3,6[K_1] colored with {col5.palette} colors; "
      f"no repetitive path within 12 vertices: "
      f"{find_repetitive_path(tree, col5.colors, 12) is None}")

# Walk-nonrepetitiveness is strictly stronger than path-nonrepetitiveness.
p3 = build_path(3)
print(f"\nP_3 colored 0,1,0: path check {find_repetitive_path(p3, (0, 1, 0), 2)}, "
      f"walk-nonrepetitive at bound 4: {is_walk_nonrepetitive(p3, (0, 1, 0), 4)}")
