"""Straight-line reference implementation used to cross-check the engine.

Everything here is deliberately primitive and self-contained: land uses,
tech levels, and weather conditions are plain integers (0-based, in the
same published order), the parameter tables are independent literal
copies, and each cycle is advanced with explicit loops over the published
equations. No package machinery is imported.
"""

# Indices: land use 0=maize, 1=soybean, 2=wheat/soy;
# tech level 0=low, 1=average, 2=high; weather 0=VU .. 4=VF.

YIELDS = {
    (0, 0): [4.05, 6.27, 7.45, 8.37, 9.25],
    (0, 1): [4.88, 7.78, 9.02, 10.45, 11.59],
    (0, 2): [5.40, 8.80, 10.22, 11.94, 13.18],
    (1, 0): [1.89, 2.67, 3.13, 3.72, 4.15],
    (1, 1): [2.13, 3.00, 3.53, 4.18, 4.67],
    (1, 2): [2.37, 3.34, 3.92, 4.65, 5.19],
    (2, 0): [3.06, 4.34, 5.21, 5.73, 7.11],
    (2, 1): [3.53, 4.89, 6.01, 6.55, 8.16],
    (2, 2): [4.25, 5.85, 7.30, 7.90, 9.83],
}

COSTS = {
    (0, 0): [504, 619, 680, 727, 773],
    (0, 1): [618, 768, 832, 906, 965],
    (0, 2): [717, 892, 966, 1055, 1119],
    (1, 0): [262, 302, 326, 356, 378],
    (1, 1): [329, 374, 401, 435, 460],
    (1, 2): [395, 446, 476, 514, 541],
    (2, 0): [477, 511, 528, 541, 584],
    (2, 1): [618, 656, 675, 690, 738],
    (2, 2): [759, 801, 822, 838, 892],
}

RENEWABILITY = {
    (0, 0): [35.5, 40.2, 42.0, 45.8, 50.2],
    (0, 1): [33.1, 37.8, 39.6, 43.4, 47.8],
    (0, 2): [31.0, 35.6, 37.3, 41.2, 45.6],
    (1, 0): [43.7, 48.4, 50.1, 53.6, 57.6],
    (1, 1): [42.2, 46.9, 48.7, 52.3, 56.3],
    (1, 2): [40.8, 45.5, 47.3, 50.9, 55.1],
    (2, 0): [24.3, 28.3, 29.9, 33.4, 37.5],
    (2, 1): [23.0, 26.9, 28.5, 31.9, 36.0],
    (2, 2): [21.8, 25.7, 27.2, 30.5, 34.7],
}

PRICES = [141.0, 277.0, 153.0]
ALPHA_WGC = [-0.55, -0.28, 0.00, 0.22, 0.45]
# [agent tech level][neighbor tech level]
ALPHA_BN = [
    [0.00, 0.20, 0.45],
    [-0.25, 0.00, 0.20],
    [-0.55, -0.25, 0.00],
]
WCT = [252.0, 333.0, 413.0]

# Moore scan order: NW, N, NE, W, E, SW, S, SE.
MOORE_OFFSETS = ((-1, -1), (-1, 0), (-1, 1), (0, -1), (0, 1), (1, -1), (1, 0), (1, 1))


def moore_neighbors(pos, dims):
    """Existing Moore neighbors of `pos` on a `dims` grid, in the scan order."""
    row, col = pos
    rows, cols = dims
    if not (0 <= row < rows and 0 <= col < cols):
        raise ValueError(f"position {pos} outside grid {dims}")
    out = []
    for dr, dc in MOORE_OFFSETS:
        r, c = row + dr, col + dc
        if 0 <= r < rows and 0 <= c < cols:
            out.append((r, c))
    return out


def advance_cycle(agents, rows, cols, wgc, rent, et):
    """One cycle over a list of agent dicts; returns per-agent outcomes.

    Each agent dict holds row, col, tenant (bool), alloc (list of 3
    percentages), tl (int), al (float). The dicts are updated in place
    with next-cycle alloc/tl/al; the returned list carries this cycle's
    profit, rl, cal, econ, env per agent.
    """
    n = len(agents)
    outcomes = []
    for agent in agents:
        tl = agent["tl"]
        profit = 0.0
        rl = 0.0
        for lu in range(3):
            share = agent["alloc"][lu] / 100.0
            margin = YIELDS[(lu, tl)][wgc] * PRICES[lu] - COSTS[(lu, tl)][wgc]
            profit += share * margin
            rl += share * RENEWABILITY[(lu, tl)][wgc]
        if agent["tenant"]:
            profit -= rent
        cal = agent["al"] + agent["al"] * ALPHA_WGC[wgc]
        outcomes.append(
            {
                "profit": profit,
                "rl": rl,
                "cal": cal,
                "econ": profit >= cal,
                "env": rl >= et,
            }
        )

    updates = []
    for idx, agent in enumerate(agents):
        # Best neighbor: highest profit over the Moore scan order; first maximum wins.
        best = None
        for r, c in moore_neighbors((agent["row"], agent["col"]), (rows, cols)):
            j = r * cols + c
            if best is None or outcomes[j]["profit"] > outcomes[best]["profit"]:
                best = j

        profit = outcomes[idx]["profit"]
        cal = outcomes[idx]["cal"]
        if profit >= cal:
            next_al = 0.45 * cal + 0.55 * profit
            next_alloc = list(agent["alloc"])
        elif best is not None and outcomes[best]["profit"] > cal:
            next_al = outcomes[best]["cal"] * (
                1.0 + ALPHA_BN[agent["tl"]][agents[best]["tl"]]
            )
            next_alloc = list(agents[best]["alloc"])
        else:
            next_al = 0.55 * cal + 0.45 * profit
            next_alloc = list(agent["alloc"])
        if next_al < 0.0:
            next_al = 0.0

        if profit >= WCT[2]:
            next_tl = 2
        elif profit >= WCT[1]:
            next_tl = 1
        else:
            next_tl = 0
        updates.append((next_alloc, next_tl, next_al))

    for agent, (next_alloc, next_tl, next_al) in zip(agents, updates):
        agent["alloc"] = next_alloc
        agent["tl"] = next_tl
        agent["al"] = next_al
    return outcomes
