"""Pure-Python kernels: integer max-flow (Dinic) and GF(2^w) matrix rank.

The reference implementation, with the interface of the compiled
wdss._kernels extension.  These versions accept arbitrary-precision
integers; the compiled max-flow raises OverflowError past 64 bits, and
wdss.kernels then reruns the problem here.
"""

from collections import deque


def max_flow(n, edges, s, t):
    """Dinic max-flow on n vertices.

    edges: iterable of (u, v, cap) with integer cap >= 0.
    Returns (flow_value, reach) where reach[v] is 1 when v is reachable
    from s in the final residual graph (the source side of a min cut).
    """
    head = [-1] * n
    to, cap, nxt = [], [], []

    def add(u, v, c):
        to.append(v)
        cap.append(c)
        nxt.append(head[u])
        head[u] = len(to) - 1

    for u, v, c in edges:
        add(u, v, c)
        add(v, u, 0)

    flow = 0
    while True:
        level = [-1] * n
        level[s] = 0
        q = deque([s])
        while q:
            u = q.popleft()
            e = head[u]
            while e != -1:
                v = to[e]
                if cap[e] > 0 and level[v] < 0:
                    level[v] = level[u] + 1
                    q.append(v)
                e = nxt[e]
        if level[t] < 0:
            break
        it = list(head)
        # iterative DFS for blocking flow
        stack = [s]
        path = []
        while stack:
            u = stack[-1]
            if u == t:
                aug = min(cap[e] for e in path)
                for i, e in enumerate(path):
                    cap[e] -= aug
                    cap[e ^ 1] += aug
                flow += aug
                # retreat to the first saturated edge on the path
                for i, e in enumerate(path):
                    if cap[e] == 0:
                        del stack[i + 1:]
                        del path[i:]
                        break
                continue
            e = it[u]
            advanced = False
            while e != -1:
                v = to[e]
                if cap[e] > 0 and level[v] == level[u] + 1:
                    it[u] = e
                    stack.append(v)
                    path.append(e)
                    advanced = True
                    break
                e = nxt[e]
            if not advanced:
                it[u] = -1
                level[u] = -1  # dead end, prune
                stack.pop()
                if path:
                    path.pop()

    reach = [0] * n
    reach[s] = 1
    q = deque([s])
    while q:
        u = q.popleft()
        e = head[u]
        while e != -1:
            v = to[e]
            if cap[e] > 0 and not reach[v]:
                reach[v] = 1
                q.append(v)
            e = nxt[e]
    return flow, reach


def gf_rank(mat, nrows, ncols, exp_table, log_table, order):
    """Rank of an nrows x ncols matrix over GF(order), row-major flat list.

    exp_table must have length >= 2*(order-1) so products need no modulo.
    """
    rows = [list(mat[i * ncols:(i + 1) * ncols]) for i in range(nrows)]
    q1 = order - 1
    rank = 0
    for col in range(ncols):
        piv = -1
        for i in range(rank, nrows):
            if rows[i][col]:
                piv = i
                break
        if piv < 0:
            continue
        rows[rank], rows[piv] = rows[piv], rows[rank]
        prow = rows[rank]
        lp = log_table[prow[col]]
        for i in range(rank + 1, nrows):
            ri = rows[i]
            if ri[col]:
                lf = log_table[ri[col]] - lp + q1  # log of ri[col]/pivot
                for j in range(col, ncols):
                    pj = prow[j]
                    if pj:
                        ri[j] ^= exp_table[(lf + log_table[pj]) % q1]
        rank += 1
        if rank == nrows:
            break
    return rank
