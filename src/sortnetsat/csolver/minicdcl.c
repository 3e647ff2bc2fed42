/* minicdcl.c - a compact CDCL SAT solver.
 *
 * Reads DIMACS CNF from argv[1], prints SAT-competition style output
 * ("s SATISFIABLE" + "v ..." model lines, or "s UNSATISFIABLE") and exits
 * with code 10 / 20.  Classic architecture: two-watched-literal propagation,
 * first-UIP clause learning, VSIDS decision heap, phase saving, Luby
 * restarts, and LBD-based learnt-clause reduction at restart time.
 *
 * Before the "s" line it prints its counters, one "c NAME N" line each:
 * conflicts, decisions, propagations (literals propagated), learnts (learnt
 * clauses held at exit) and restarts.  They are printed only at exit.  On
 * SIGTERM it stops at the next step of its search, prints its counters and
 * "s UNKNOWN", and exits with code 0.
 *
 * The loader reads the whole file and walks it once, a literal at a time,
 * with a plain sign-and-digit loop: a literal may carry a sign, '-' or '+',
 * and its digits are checked against the declared variable count as they are
 * read, so no literal overflows.  A 'c' or '%' where a literal could start
 * begins a comment, up to the end of its line; blanks are spaces, tabs, CRs
 * and newlines.  It dies with a message on stderr and exit code 1 on a
 * literal beyond the declared count, anything else that is no literal, a
 * clause before the "p cnf VARS CLAUSES" line, a p line with a count missing,
 * negative or too large (VARS at most (INT_MAX - 3) / 2, so that every
 * literal code fits an int), and a second p line, which
 * would drop the clauses read before it.  A last clause without its 0 is
 * kept, a tautology is dropped and a repeated literal is kept once.
 *
 * Besides clauses, the loader reads two line kinds that let a file state
 * a template of clauses once and apply it to other blocks of variables:
 *   - "b K START WIDTH N" starts template K: the N clauses after it are
 *     read and committed as usual, and their literals are also kept as
 *     written, before the commit drops a tautology or a repeated literal.
 *     The variables START .. START + WIDTH - 1 form the template's block;
 *   - "r K START2" applies template K to the block that starts at START2:
 *     its kept clauses go, in order, through the same commit as a clause
 *     read from the file, each variable of its block moved by START2 -
 *     START, and every other variable kept.
 * A writer that names each template's block so that no other variable of
 * its clauses falls in it (sortnetsat.solving.write_minicdcl does) makes
 * an "r" line stand for exactly the clauses that plain DIMACS would spell
 * out in its place.  The commit sees the same clauses in the same order in
 * both forms, so it builds the same clause store and watch lists, and the
 * search, with every decision, conflict and model, and the output are the
 * same.
 * The loader dies with a message, exit code 1, on a "b" or "r" line before
 * the p line, inside a clause or among a template's N clauses; a reference
 * to a template not yet complete (undefined, or the one being read); a
 * template number defined twice or not below MAX_TEMPLATES; a block that
 * does not lie within 1 .. VARS (an empty block may start at VARS + 1); a
 * file that ends inside a template; and, in a file that holds either line
 * kind, a clause count, read and applied, other than the p line's.  Plain
 * DIMACS keeps its leniency about that count.
 *
 * Propagation follows the cache-conscious layout of Chu, Harwood & Stuckey
 * (JSAT 2009), in four ways that leave the search unchanged:
 *   - literal codes: inside the solver the literal v is 2v and -v is 2v+1, so
 *     a literal's value is one load from vals[] and indexes its watch list;
 *   - prefetching: a watch list's clauses are prefetched ahead of the visit,
 *     and so is the watch list of the next trail literal.  A visit that finds
 *     the other watch true writes nothing to the clause;
 *   - the problem clauses satisfied at level 0 are dropped once, after the
 *     first propagation, from the watch lists and orig_refs in place.  Such a
 *     clause never propagates or conflicts, so every other watcher keeps its
 *     place.  Rebuilding the lists in clause order instead changes the search;
 *   - clause layout: right after that drop, the clauses left are copied into
 *     a fresh arena in watch-list order (each where the walk over the literal
 *     codes first meets it), and every ref is renamed in place, so a watch
 *     list's visits mostly read neighbouring clauses.  A clause's header is
 *     one word, its size; a learnt clause keeps its LBD in the word before.
 * Every decision, conflict and model is the same as without them; the
 * counters of five instances are pinned by
 * tests/test_solving.py::test_bundled_solver_search_is_pinned.
 */

#include <limits.h>
#include <signal.h>
#include <stdio.h>
#include <stdlib.h>
#include <string.h>

#ifdef __GNUC__
#define PREFETCH(p) __builtin_prefetch(p)
#else
#define PREFETCH(p) ((void)0)
#endif
#define PREFETCH_AHEAD 16 /* clauses of a watch list prefetched ahead */

static void die(const char *msg) {
    fprintf(stderr, "minicdcl: %s\n", msg);
    exit(1);
}

/* ---------------- growable int vector ---------------- */
typedef struct {
    int sz, cap;
    int *data;
} vec;

static void vpush(vec *v, int x) {
    if (v->sz == v->cap) {
        v->cap = v->cap ? 2 * v->cap : 8;
        v->data = (int *)realloc(v->data, (size_t)v->cap * sizeof(int));
        if (!v->data) die("out of memory");
    }
    v->data[v->sz++] = x;
}

/* ---------------- solver state ---------------- */
static int nvars = 0;

/* clause arena: [size][lits...], a learnt clause preceded by its LBD; a
 * clause's ref is the index of its size word */
static int *arena = NULL;
static int arena_sz = 0, arena_cap = 0;

static vec *watches = NULL; /* per literal code */
static vec learnts;         /* refs of learnt clauses */
static vec orig_refs;       /* refs of problem clauses */

static signed char *vals = NULL; /* per literal code: 0 unknown, 1 true, -1 false */
static signed char *phase = NULL;
static int *level_ = NULL;
static int *reason_ = NULL; /* clause ref or -1 */
static int *trail = NULL;
static int trail_sz = 0, qhead = 0;
static vec trail_lim;

static double *activity = NULL;
static double var_inc = 1.0;
static int *heap = NULL, *hpos = NULL; /* max-heap on activity */
static int hsz = 0;

static unsigned char *seen = NULL;
static int *lbd_stamp = NULL;
static int lbd_counter = 0;

static long conflicts = 0, decisions = 0, propagations = 0, restarts = 0;
static long max_learnts = 0;

/* a literal's code: 2v for v, 2v+1 for -v */
#define VAR(l) ((l) >> 1)
#define NEG(l) ((l) ^ 1)
#define POS(v) (2 * (v))

static volatile sig_atomic_t stop_requested = 0;

static void on_sigterm(int sig) {
    (void)sig;
    stop_requested = 1;
}

/* ---------------- heap ---------------- */
static void hswap(int a, int b) {
    int va = heap[a], vb = heap[b];
    heap[a] = vb;
    heap[b] = va;
    hpos[vb] = a;
    hpos[va] = b;
}

static void siftup(int i) {
    while (i > 0) {
        int p = (i - 1) / 2;
        if (activity[heap[i]] > activity[heap[p]]) {
            hswap(i, p);
            i = p;
        } else
            break;
    }
}

static void siftdown(int i) {
    for (;;) {
        int l = 2 * i + 1, r = l + 1, m = i;
        if (l < hsz && activity[heap[l]] > activity[heap[m]]) m = l;
        if (r < hsz && activity[heap[r]] > activity[heap[m]]) m = r;
        if (m == i) break;
        hswap(i, m);
        i = m;
    }
}

static void hinsert(int v) {
    if (hpos[v] >= 0) return;
    heap[hsz] = v;
    hpos[v] = hsz;
    hsz++;
    siftup(hsz - 1);
}

static int hpop(void) {
    int v = heap[0];
    hpos[v] = -1;
    hsz--;
    if (hsz > 0) {
        heap[0] = heap[hsz];
        hpos[heap[0]] = 0;
        siftdown(0);
    }
    return v;
}

static void var_bump(int v) {
    activity[v] += var_inc;
    if (activity[v] > 1e100) {
        for (int i = 1; i <= nvars; i++) activity[i] *= 1e-100;
        var_inc *= 1e-100;
    }
    if (hpos[v] >= 0) siftup(hpos[v]);
}

/* ---------------- clauses ---------------- */
static int add_clause_raw(const int *lits, int n, int learnt, int lbd) {
    while (arena_sz + n + 1 + learnt > arena_cap) {
        arena_cap = arena_cap ? 2 * arena_cap : 1 << 16;
        arena = (int *)realloc(arena, (size_t)arena_cap * sizeof(int));
        if (!arena) die("out of memory");
    }
    if (learnt) arena[arena_sz++] = lbd;
    int ref = arena_sz;
    arena[arena_sz++] = n;
    memcpy(arena + arena_sz, lits, (size_t)n * sizeof(int));
    arena_sz += n;
    vpush(&watches[lits[0]], ref);
    vpush(&watches[lits[1]], ref);
    if (learnt)
        vpush(&learnts, ref);
    else
        vpush(&orig_refs, ref);
    return ref;
}

static void enqueue(int lit, int reason_ref) {
    int v = VAR(lit);
    vals[lit] = 1;
    vals[NEG(lit)] = -1;
    level_[v] = trail_lim.sz;
    reason_[v] = reason_ref;
    trail[trail_sz++] = lit;
}

static int propagate(void) { /* returns conflicting ref or -1 */
    int qstart = qhead;
    while (qhead < trail_sz) {
        int false_lit = NEG(trail[qhead++]);
        vec *ws = &watches[false_lit];
        if (qhead < trail_sz) PREFETCH(watches[NEG(trail[qhead])].data);
        for (int k = 0; k < ws->sz && k < PREFETCH_AHEAD; k++) PREFETCH(arena + ws->data[k]);
        int i = 0, j = 0;
        while (i < ws->sz) {
            if (i + PREFETCH_AHEAD < ws->sz) PREFETCH(arena + ws->data[i + PREFETCH_AHEAD]);
            int cr = ws->data[i++];
            int *c = arena + cr;
            int *lits = c + 1;
            /* one of lits[0], lits[1] is false_lit; the other is read in place */
            if (vals[lits[0] ^ lits[1] ^ false_lit] == 1) {
                ws->data[j++] = cr;
                continue;
            }
            if (lits[0] == false_lit) {
                lits[0] = lits[1];
                lits[1] = false_lit;
            }
            int sz = c[0];
            int k;
            for (k = 2; k < sz; k++) {
                if (vals[lits[k]] != -1) {
                    lits[1] = lits[k];
                    lits[k] = false_lit;
                    vpush(&watches[lits[1]], cr);
                    break;
                }
            }
            if (k < sz) continue; /* watch moved */
            ws->data[j++] = cr;
            if (vals[lits[0]] == -1) {
                while (i < ws->sz) ws->data[j++] = ws->data[i++];
                ws->sz = j;
                propagations += qhead - qstart;
                return cr;
            }
            enqueue(lits[0], cr);
        }
        ws->sz = j;
    }
    propagations += qhead - qstart;
    return -1;
}

static void backjump(int blevel) {
    if (trail_lim.sz <= blevel) return;
    int bound = trail_lim.data[blevel];
    for (int t = trail_sz - 1; t >= bound; t--) {
        int lit = trail[t], v = VAR(lit);
        phase[v] = vals[POS(v)];
        vals[lit] = vals[NEG(lit)] = 0;
        hinsert(v);
    }
    trail_sz = bound;
    qhead = bound;
    trail_lim.sz = blevel;
}

/* 1UIP conflict analysis; fills learnt vec, returns backtrack level, sets lbd */
static vec learnt_c;
static vec toclear;

/* a literal of the learnt clause is redundant when its reason resolves away
 * against literals already in the clause (or fixed at level 0) */
static int lit_redundant(int q) {
    int r = reason_[VAR(q)];
    if (r < 0) return 0;
    int *c = arena + r;
    int sz = c[0];
    int *lits = c + 1;
    for (int k = 1; k < sz; k++) {
        int v = VAR(lits[k]);
        if (level_[v] > 0 && !seen[v]) return 0;
    }
    return 1;
}

static int analyze(int confl, int *out_lbd) {
    learnt_c.sz = 0;
    toclear.sz = 0;
    vpush(&learnt_c, 0); /* slot for the asserting literal */
    int pathC = 0, p = 0;
    int idx = trail_sz - 1;
    int dlevel = trail_lim.sz;
    do {
        int *c = arena + confl;
        int sz = c[0];
        int *lits = c + 1;
        for (int k = (p == 0 ? 0 : 1); k < sz; k++) {
            int q = lits[k];
            int v = VAR(q);
            if (!seen[v] && level_[v] > 0) {
                seen[v] = 1;
                var_bump(v);
                if (level_[v] >= dlevel)
                    pathC++;
                else
                    vpush(&learnt_c, q);
            }
        }
        while (!seen[VAR(trail[idx])]) idx--;
        p = trail[idx];
        confl = reason_[VAR(p)];
        seen[VAR(p)] = 0;
        pathC--;
        idx--;
    } while (pathC > 0);
    learnt_c.data[0] = NEG(p);

    for (int k = 1; k < learnt_c.sz; k++) vpush(&toclear, VAR(learnt_c.data[k]));
    int j = 1;
    for (int k = 1; k < learnt_c.sz; k++)
        if (!lit_redundant(learnt_c.data[k])) learnt_c.data[j++] = learnt_c.data[k];
    learnt_c.sz = j;

    int btlevel = 0;
    if (learnt_c.sz > 1) {
        int mi = 1;
        for (int k = 2; k < learnt_c.sz; k++)
            if (level_[VAR(learnt_c.data[k])] > level_[VAR(learnt_c.data[mi])]) mi = k;
        int tmp = learnt_c.data[1];
        learnt_c.data[1] = learnt_c.data[mi];
        learnt_c.data[mi] = tmp;
        btlevel = level_[VAR(learnt_c.data[1])];
    }
    lbd_counter++;
    int lbd = 0;
    for (int k = 0; k < learnt_c.sz; k++) {
        int lv = level_[VAR(learnt_c.data[k])];
        if (lbd_stamp[lv] != lbd_counter) {
            lbd_stamp[lv] = lbd_counter;
            lbd++;
        }
    }
    for (int k = 0; k < toclear.sz; k++) seen[toclear.data[k]] = 0;
    *out_lbd = lbd;
    return btlevel;
}

/* ------------- level-0 simplification + learnt reduction + GC ------------- */
static int cmp_learnt(const void *a, const void *b) {
    int ra = *(const int *)a, rb = *(const int *)b;
    int la = arena[ra - 1], lb = arena[rb - 1];
    if (la != lb) return la - lb;
    return arena[ra] - arena[rb]; /* shorter first */
}

/* appends the clause cr, after its LBD if it is learnt, to new_arena;
 * returns its new ref */
static int copy_clause(int cr, int learnt, int *new_arena, int *new_sz) {
    int n = arena[cr];
    if (learnt) new_arena[(*new_sz)++] = arena[cr - 1];
    int ref = *new_sz;
    memcpy(new_arena + ref, arena + cr, (size_t)(n + 1) * sizeof(int));
    *new_sz += n + 1;
    return ref;
}

/* returns 0 on unsatisfiability discovered during simplification */
static int reduce_and_simplify(void) {
    /* at decision level 0 reasons are never inspected again */
    for (int t = 0; t < trail_sz; t++) reason_[VAR(trail[t])] = -1;

    if (learnts.sz > max_learnts) {
        qsort(learnts.data, (size_t)learnts.sz, sizeof(int), cmp_learnt);
        int keep = learnts.sz / 2;
        int j = 0;
        for (int i = 0; i < learnts.sz; i++) {
            int cr = learnts.data[i];
            int lbd = arena[cr - 1];
            if (i < keep || lbd <= 3)
                learnts.data[j++] = cr;
        }
        learnts.sz = j;
        max_learnts = (long)(max_learnts * 1.2) + 64;
    }

    int *new_arena = (int *)malloc((size_t)arena_cap * sizeof(int));
    if (!new_arena) die("out of memory");
    int new_sz = 0;
    for (int l = 0; l < 2 * (nvars + 1); l++) watches[l].sz = 0;

    vec *lists[2] = {&orig_refs, &learnts};
    for (int which = 0; which < 2; which++) {
        vec *src = lists[which];
        int j = 0;
        for (int i = 0; i < src->sz; i++) {
            int cr = src->data[i];
            int n = arena[cr];
            int *lits = arena + cr + 1;
            int sat = 0, m = 0;
            for (int k = 0; k < n; k++) {
                int val = vals[lits[k]];
                if (val == 1) {
                    sat = 1;
                    break;
                }
                if (val == 0) lits[m++] = lits[k];
            }
            if (sat) continue;
            if (m == 0) {
                free(new_arena);
                return 0;
            }
            if (m == 1) {
                enqueue(lits[0], -1);
                continue;
            }
            arena[cr] = m;
            int ref = copy_clause(cr, src == &learnts, new_arena, &new_sz);
            vpush(&watches[new_arena[ref + 1]], ref);
            vpush(&watches[new_arena[ref + 2]], ref);
            src->data[j++] = ref;
        }
        src->sz = j;
    }
    free(arena);
    arena = new_arena;
    arena_sz = new_sz;
    return 1;
}

/* removes the refs of satisfied clauses from refs, keeping the order of the rest */
static void drop_satisfied(vec *refs) {
    int j = 0;
    for (int i = 0; i < refs->sz; i++) {
        int cr = refs->data[i];
        int n = arena[cr], k;
        int *lits = arena + cr + 1;
        for (k = 0; k < n && vals[lits[k]] != 1; k++)
            ;
        if (k == n) refs->data[j++] = cr;
    }
    refs->sz = j;
}

/* at level 0, before the first decision, when every clause is a problem
 * clause: copies the clauses into a fresh arena of their size, in the order
 * the watch lists meet them, literal code by literal code, so that most
 * clauses of a watch list lie together.  The refs are renamed in place, so
 * every list keeps its order, and the search stays the same.  A copied
 * clause's old size word holds ~(its new ref), which is negative.  Level-0
 * reasons are never inspected again, so they are cleared, not renamed */
static void relayout(void) {
    for (int t = 0; t < trail_sz; t++) reason_[VAR(trail[t])] = -1;
    int live = 0;
    for (int i = 0; i < orig_refs.sz; i++) live += arena[orig_refs.data[i]] + 1;
    int *new_arena = (int *)malloc((size_t)live * sizeof(int));
    if (!new_arena && live) die("out of memory");
    int new_sz = 0;
    for (int l = 0; l < 2 * (nvars + 1); l++) {
        vec *ws = &watches[l];
        for (int i = 0; i < ws->sz; i++) {
            int cr = ws->data[i];
            if (arena[cr] >= 0) arena[cr] = ~copy_clause(cr, 0, new_arena, &new_sz);
            ws->data[i] = ~arena[cr];
        }
    }
    for (int i = 0; i < orig_refs.sz; i++) orig_refs.data[i] = ~arena[orig_refs.data[i]];
    free(arena);
    arena = new_arena;
    arena_sz = arena_cap = new_sz;
}

/* ---------------- restarts ---------------- */
static int luby(int x) {
    int size, seq;
    for (size = 1, seq = 0; size < x + 1; seq++, size = 2 * size + 1)
        ;
    while (size - 1 != x) {
        size = (size - 1) >> 1;
        seq--;
        x = x % size;
    }
    return seq;
}

/* ---------------- DIMACS and templates ---------------- */
static char *read_all(const char *path, long *len) {
    FILE *f = fopen(path, "rb");
    if (!f) die("cannot open input file");
    fseek(f, 0, SEEK_END);
    *len = ftell(f);
    fseek(f, 0, SEEK_SET);
    char *buf = (char *)malloc((size_t)*len + 1);
    if (!buf) die("out of memory");
    if (fread(buf, 1, (size_t)*len, f) != (size_t)*len) die("short read");
    buf[*len] = 0;
    fclose(f);
    return buf;
}

static int *lit_stamp = NULL;
static int stamp_gen = 0;

static int root_conflict = 0;

#define MAX_TEMPLATES 65536 /* template numbers run from 0 to this - 1 */

/* a template: the clauses after its "b" line, kept as read */
typedef struct {
    int start, width; /* its block: the variables start .. start + width - 1 */
    int clauses;      /* N, its clause count */
    int from, to;     /* its literal codes in tlits, each clause ended by a 0 */
    int defined;      /* all N clauses are read */
} tmpl;

static tmpl templates[MAX_TEMPLATES];
static vec tlits;

static void commit_clause(vec *cl) {
    if (root_conflict) return;
    stamp_gen++;
    int m = 0;
    for (int i = 0; i < cl->sz; i++) {
        int l = cl->data[i];
        if (lit_stamp[NEG(l)] == stamp_gen) return; /* a tautology */
        if (lit_stamp[l] == stamp_gen) continue;    /* a repeated literal */
        lit_stamp[l] = stamp_gen;
        cl->data[m++] = l;
    }
    if (m == 0) {
        root_conflict = 1;
        return;
    }
    if (m == 1) {
        int l = cl->data[0];
        if (vals[l] == -1)
            root_conflict = 1;
        else if (vals[l] == 0)
            enqueue(l, -1);
        return;
    }
    add_clause_raw(cl->data, m, 0, 0);
}

/* commits the clauses of t over the block that starts at start, each
 * variable of t's block shifted by the same distance */
static void replay(const tmpl *t, int start, vec *cl) {
    int lo = POS(t->start), hi = POS(t->start + t->width);
    int shift = POS(start - t->start);
    for (int i = t->from; i < t->to; i++) {
        int l = tlits.data[i];
        if (l == 0) {
            commit_clause(cl);
            cl->sz = 0;
        } else {
            vpush(cl, l >= lo && l < hi ? l + shift : l);
        }
    }
}

static void alloc_state(int nv) {
    nvars = nv;
    watches = (vec *)calloc((size_t)(2 * (nv + 1) + 2), sizeof(vec));
    vals = (signed char *)calloc(2 * ((size_t)nv + 1), 1);
    phase = (signed char *)calloc((size_t)nv + 1, 1);
    level_ = (int *)calloc((size_t)nv + 1, sizeof(int));
    reason_ = (int *)malloc(((size_t)nv + 1) * sizeof(int));
    trail = (int *)malloc(((size_t)nv + 1) * sizeof(int));
    activity = (double *)calloc((size_t)nv + 1, sizeof(double));
    heap = (int *)malloc(((size_t)nv + 1) * sizeof(int));
    hpos = (int *)malloc(((size_t)nv + 1) * sizeof(int));
    seen = (unsigned char *)calloc((size_t)nv + 1, 1);
    lbd_stamp = (int *)calloc((size_t)nv + 2, sizeof(int));
    lit_stamp = (int *)calloc(2 * ((size_t)nv + 1), sizeof(int));
    if (!watches || !vals || !phase || !level_ || !reason_ || !trail ||
        !activity || !heap || !hpos || !seen || !lbd_stamp || !lit_stamp)
        die("out of memory");
    for (int v = 1; v <= nv; v++) {
        hpos[v] = -1;
        phase[v] = -1;
        reason_[v] = -1;
    }
}

/* prints the counters and the answer (1 SAT, 0 UNSAT, -1 UNKNOWN); returns
 * the exit code */
static int finish(int sat) {
    printf("c conflicts %ld\nc decisions %ld\nc propagations %ld\nc learnts %d\nc restarts %ld\n",
           conflicts, decisions, propagations, learnts.sz, restarts);
    if (sat < 0) {
        printf("s UNKNOWN\n");
        return 0;
    }
    if (!sat) {
        printf("s UNSATISFIABLE\n");
        return 20;
    }
    printf("s SATISFIABLE\n");
    int col = 0;
    printf("v");
    for (int u = 1; u <= nvars; u++) {
        printf(" %d", vals[POS(u)] > 0 ? u : -u);
        if (++col % 24 == 0 && u < nvars) printf("\nv");
    }
    printf(" 0\n");
    return 10;
}

/* the number whose digits start at *pp, read up to its last digit, with *pp
 * moved past them; -1, with *pp kept, when *pp is no digit.  Dies with msg as
 * soon as the number exceeds max, so it never overflows */
static int read_number(char **pp, int max, const char *msg) {
    char *p = *pp;
    if (*p < '0' || *p > '9') return -1;
    long long v = 0;
    do {
        v = 10 * v + (*p++ - '0');
        if (v > max) die(msg);
    } while (*p >= '0' && *p <= '9');
    *pp = p;
    return (int)v;
}

static char *skip_blanks(char *p) {
    while (*p == ' ' || *p == '\t' || *p == '\r') p++;
    return p;
}

/* reads the line "p cnf VARS CLAUSES" at *pp, up to its newline; returns
 * VARS and sets *nc_out to CLAUSES */
static int read_header(char **pp, int *nc_out) {
    char *p = skip_blanks(*pp + 1);
    if (strncmp(p, "cnf", 3) != 0) die("bad p line");
    p = skip_blanks(p + 3);
    /* the code 2v + 1 of every literal, and the count of them, fit an int */
    int nv = read_number(&p, (INT_MAX - 3) / 2, "bad p line");
    p = skip_blanks(p);
    int nc = read_number(&p, INT_MAX, "bad p line");
    p = skip_blanks(p);
    if (nv < 0 || nc < 0 || (*p && *p != '\n')) die("bad p line");
    *pp = p;
    *nc_out = nc;
    return nv;
}

/* the number after the blanks at *pp, with *pp moved past it; dies when
 * there is none, and with msg when it exceeds max */
static int template_field(char **pp, int max, const char *msg) {
    *pp = skip_blanks(*pp);
    int v = read_number(pp, max, msg);
    if (v < 0) die("bad template line");
    return v;
}

int main(int argc, char **argv) {
    if (argc < 2) die("usage: minicdcl FILE.cnf");
    signal(SIGTERM, on_sigterm);
    long len = 0;
    char *buf = read_all(argv[1], &len);
    char *p = buf;
    int declared_vars = -1; /* until the p line */
    int declared_clauses = 0;
    long long clauses_read = 0; /* read, and applied by "r" lines */
    int uses_templates = 0;
    tmpl *reading = NULL; /* the template whose clauses are being read */
    int left = 0;         /* how many of them are still to come */
    vec cl = {0, 0, NULL};
    while (*p) {
        char ch = *p;
        if (ch == ' ' || ch == '\n' || ch == '\t' || ch == '\r') {
            p++;
            continue;
        }
        if (ch == 'c' || ch == '%') {
            while (*p && *p != '\n') p++;
            continue;
        }
        if (ch == 'p') {
            if (declared_vars >= 0) die("second p line");
            declared_vars = read_header(&p, &declared_clauses);
            alloc_state(declared_vars);
            continue;
        }
        if (ch == 'b' || ch == 'r') {
            if (declared_vars < 0) die("template line before p line");
            if (cl.sz) die("template line inside a clause");
            if (reading) die("template line inside a template");
            const char *outside = "template block outside declared vars";
            p++;
            tmpl *t = &templates[template_field(&p, MAX_TEMPLATES - 1,
                                                "template number beyond the limit")];
            int start = template_field(&p, declared_vars + 1, outside);
            int width = ch == 'b' ? template_field(&p, declared_vars + 1, outside) : t->width;
            int n = ch == 'b' ? template_field(&p, INT_MAX, "bad template line") : 0;
            p = skip_blanks(p);
            if (*p && *p != '\n') die("bad template line");
            if (ch == 'b' && t->defined) die("template defined twice");
            if (ch == 'r' && !t->defined) die("undefined template");
            if (start < 1 || (long long)start + width - 1 > declared_vars) die(outside);
            uses_templates = 1;
            if (ch == 'r') {
                replay(t, start, &cl);
                clauses_read += t->clauses;
                continue;
            }
            t->start = start;
            t->width = width;
            t->clauses = left = n;
            t->from = t->to = tlits.sz;
            t->defined = n == 0;
            reading = n ? t : NULL;
            continue;
        }
        if (declared_vars < 0) die("clause before p line");
        if (ch == '-' || ch == '+') p++;
        int v = read_number(&p, declared_vars, "literal beyond declared vars");
        if (v < 0) die("cannot parse literal");
        if (v == 0) {
            if (reading) {
                for (int i = 0; i < cl.sz; i++) vpush(&tlits, cl.data[i]);
                vpush(&tlits, 0);
                if (--left == 0) {
                    reading->to = tlits.sz;
                    reading->defined = 1;
                    reading = NULL;
                }
            }
            commit_clause(&cl);
            cl.sz = 0;
            clauses_read++;
        } else {
            vpush(&cl, ch == '-' ? NEG(POS(v)) : POS(v));
        }
    }
    if (reading) die("file ends inside a template");
    if (cl.sz) { /* unterminated final clause */
        commit_clause(&cl);
        clauses_read++;
    }
    free(buf);
    free(tlits.data);
    if (declared_vars < 0) die("missing p line");
    if (uses_templates && clauses_read != declared_clauses)
        die("clause count differs from the p line");

    if (root_conflict || propagate() != -1) return finish(0);

    for (int v = 1; v <= nvars; v++) hinsert(v);
    max_learnts = orig_refs.sz / 3 + 2000; /* counts the clauses dropped next */
    /* at level 0, once: filtered in place, the watch lists keep the order
     * of the clauses left, and with it the search */
    drop_satisfied(&orig_refs);
    for (int l = 0; l < 2 * (nvars + 1); l++) drop_satisfied(&watches[l]);
    relayout();
    long restart_budget = 100;
    long conflicts_at_restart = 0;

    for (;;) {
        if (stop_requested) return finish(-1);
        int confl = propagate();
        if (confl != -1) {
            conflicts++;
            if (trail_lim.sz == 0) return finish(0);
            int lbd = 0;
            int bt = analyze(confl, &lbd);
            backjump(bt);
            if (learnt_c.sz == 1) {
                enqueue(learnt_c.data[0], -1);
            } else {
                int cr = add_clause_raw(learnt_c.data, learnt_c.sz, 1, lbd);
                enqueue(learnt_c.data[0], cr);
            }
            var_inc /= 0.95;
        } else {
            if (conflicts - conflicts_at_restart >= restart_budget) {
                restarts++;
                restart_budget = 100L << luby((int)restarts);
                conflicts_at_restart = conflicts;
                backjump(0);
                if (learnts.sz > max_learnts) {
                    if (!reduce_and_simplify()) return finish(0);
                    if (propagate() != -1) return finish(0);
                }
                continue;
            }
            int v = 0;
            while (hsz > 0) {
                v = hpop();
                if (!vals[POS(v)]) break;
                v = 0;
            }
            if (v == 0) return finish(1);
            decisions++;
            vpush(&trail_lim, trail_sz);
            enqueue(phase[v] > 0 ? POS(v) : NEG(POS(v)), -1);
        }
    }
}
