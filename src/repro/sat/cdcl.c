/*
 * Native CDCL search core for repro.sat.solver.CDCLSolver.
 *
 * This file is a line-for-line port of the search in ReferenceCDCLSolver
 * (solver.py): the same flat clause arena with its 5-word header, the same
 * per-literal value table, blocker and binary watch lists, first-UIP
 * analysis with the cached-verdict recursive minimisation, lazy VSIDS heap,
 * Luby restarts and LBD-ranked in-place database reduction.  Every
 * tie-break, list order and floating-point operation matches the Python
 * core, so both backends make the same decisions, learn the same clauses
 * and count the same conflicts and propagations on every call.
 *
 * The Python driver owns the cold paths: qs_search() runs until a cold
 * event (verdict, conflict budget, restart, database reduction or a
 * deadline poll stride) and returns its code; the driver records the
 * observability events and polls the deadline, then resumes the search.
 *
 * Build: cc -O2 -shared -fPIC -ffp-contract=off cdcl.c -o cdcl.so.
 * Contracting a*b+c into an FMA would change VSIDS rounding, so the
 * contraction flag is part of the build, and -ffast-math must never be.
 */

#include <stdint.h>
#include <stdlib.h>
#include <string.h>

#define HDR 5
#define F_LEARNED 1
#define F_DEAD 2
#define F_LOCKED 4 /* transient mark inside reduce_learned() only */
#define DEADLINE_STRIDE 256

enum {
    EV_CONTINUE = 0,
    EV_SAT = 1,
    EV_UNSAT = 2,        /* the clause database itself is unsatisfiable */
    EV_ASSUMP_UNSAT = 3, /* unsatisfiable under this call's assumptions */
    EV_BUDGET = 4,       /* per-call conflict budget exhausted */
    EV_RESTART = 5,      /* restart due; trail not yet backjumped */
    EV_REDUCED = 6,      /* database reduction just ran */
    EV_POLL = 7          /* deadline poll stride reached */
};

enum { R_TOP = 0, R_DECIDE = 1, R_CONFLICT = 2 };

/* Counters and read-only views shared with the Python driver (mirrored
 * field for field by a ctypes Structure). */
typedef struct {
    int64_t decisions;
    int64_t propagations;
    int64_t conflicts;
    int64_t restarts;
    int64_t learned_clauses;
    int64_t max_decision_level;
    int64_t trail_len;
    int64_t decision_level;
    int64_t learned_live;
    int64_t arena_len;
    int64_t num_vars;
    int64_t reduce_threshold; /* writable by the driver */
    int64_t trivially_unsat;
    int64_t call_max_level;
    int64_t restart_interval;
    int64_t reduce_before;
    int64_t exported_len;
} Info;

typedef struct {
    int32_t *data;
    int64_t len, cap;
} IVec;

typedef struct {
    int32_t lit; /* blocker (long clauses) or the other literal (binary) */
    int32_t ref; /* arena offset of the clause */
} Watch;

typedef struct {
    Watch *data;
    int64_t len, cap;
} WVec;

typedef struct {
    double key; /* -activity */
    int32_t var;
} HeapItem;

typedef struct {
    Info info; /* first member: the driver maps it by the handle address */

    int32_t num_vars;
    int64_t var_cap;
    int32_t restart_base;
    double var_decay, clause_decay;
    int8_t default_phase;

    /* Clause database: int arena + parallel clause activities. */
    IVec arena;
    double *act;
    int64_t act_len, act_cap;
    double clause_bump;

    /* Assignment state (litval per literal, the rest per variable). */
    int8_t *litval;
    int32_t *level;
    int32_t *reason;
    int8_t *phase;
    IVec trail, trail_lim;
    int64_t qhead;

    /* VSIDS: lazy min-heap on (-activity, var) with duplicates. */
    double *activity;
    double var_bump;
    HeapItem *heap;
    int64_t heap_len, heap_cap;
    int32_t *heap_entries;

    /* Conflict analysis / minimisation scratch. */
    int8_t *seen;
    IVec touched, learned, ccmin_vars, ccmin_ks, ccmin_ends;
    uint32_t *level_stamp;
    uint32_t stamp;

    /* Watch lists per encoded literal. */
    WVec *watches;
    WVec *bins;

    /* Learned-clause export: signed literals, 0-terminated clauses. */
    int32_t export_max_lbd; /* -1: export disabled */
    int32_t export_max_length;
    IVec exported;

    /* add_clauses scratch: literal marks indexed by encoded literal. */
    uint8_t *lit_mark;
    int64_t lit_mark_cap;
    IVec scratch;

    /* Per-call search state. */
    IVec assumptions;
    int64_t max_conflicts; /* -1: unbounded */
    int64_t entry_conflicts;
    int32_t has_deadline;
    int64_t until_restart, since_restart, restart_count, countdown;
    int32_t resume;
    int32_t pending_conflict;
} Solver;

/* ------------------------------------------------------------------ */
/* Allocation helpers (allocation failure aborts, like an OOM kill).   */
/* ------------------------------------------------------------------ */
static void *xrealloc(void *ptr, size_t size) {
    void *out = realloc(ptr, size ? size : 1);
    if (!out)
        abort();
    return out;
}

static void ivec_reserve(IVec *v, int64_t need) {
    if (need <= v->cap)
        return;
    int64_t cap = v->cap ? v->cap : 16;
    while (cap < need)
        cap *= 2;
    v->data = xrealloc(v->data, (size_t)cap * sizeof(int32_t));
    v->cap = cap;
}

static inline void ivec_push(IVec *v, int32_t x) {
    if (v->len == v->cap)
        ivec_reserve(v, v->len + 1);
    v->data[v->len++] = x;
}

static inline void wvec_push(WVec *v, int32_t lit, int32_t ref) {
    if (v->len == v->cap) {
        int64_t cap = v->cap ? v->cap * 2 : 4;
        v->data = xrealloc(v->data, (size_t)cap * sizeof(Watch));
        v->cap = cap;
    }
    v->data[v->len].lit = lit;
    v->data[v->len].ref = ref;
    v->len++;
}

static int64_t luby(int64_t i) {
    int64_t size = 1, sequences = 0;
    while (size < i) {
        size = 2 * size + 1;
        sequences++;
    }
    while (size - 1 != i - 1) {
        size = (size - 1) >> 1;
        sequences--;
        i = ((i - 1) % size) + 1;
    }
    return (int64_t)1 << sequences;
}

/* ------------------------------------------------------------------ */
/* Order heap: exact binary min-heap on (key, var).  Equal entries are  */
/* indistinguishable, so the pop sequence equals Python's heapq.        */
/* ------------------------------------------------------------------ */
static inline int heap_less(const HeapItem *a, const HeapItem *b) {
    return a->key < b->key || (a->key == b->key && a->var < b->var);
}

static void heap_sift_down(HeapItem *h, int64_t n, int64_t i) {
    HeapItem item = h[i];
    for (;;) {
        int64_t child = 2 * i + 1;
        if (child >= n)
            break;
        if (child + 1 < n && heap_less(&h[child + 1], &h[child]))
            child++;
        if (!heap_less(&h[child], &item))
            break;
        h[i] = h[child];
        i = child;
    }
    h[i] = item;
}

static void heap_push(Solver *s, double key, int32_t var) {
    if (s->heap_len == s->heap_cap) {
        int64_t cap = s->heap_cap ? s->heap_cap * 2 : 64;
        s->heap = xrealloc(s->heap, (size_t)cap * sizeof(HeapItem));
        s->heap_cap = cap;
    }
    HeapItem *h = s->heap;
    HeapItem item = {key, var};
    int64_t i = s->heap_len++;
    while (i > 0) {
        int64_t parent = (i - 1) >> 1;
        if (!heap_less(&item, &h[parent]))
            break;
        h[i] = h[parent];
        i = parent;
    }
    h[i] = item;
}

static int32_t heap_pop(Solver *s) {
    HeapItem *h = s->heap;
    int32_t var = h[0].var;
    s->heap_len--;
    if (s->heap_len > 0) {
        h[0] = h[s->heap_len];
        heap_sift_down(h, s->heap_len, 0);
    }
    return var;
}

/* ------------------------------------------------------------------ */
/* Variable space                                                      */
/* ------------------------------------------------------------------ */
static void grow_var_arrays(Solver *s, int64_t num_vars) {
    if (num_vars + 1 <= s->var_cap)
        return;
    int64_t cap = s->var_cap ? s->var_cap : 16;
    while (cap < num_vars + 1)
        cap *= 2;
    size_t n = (size_t)cap;
    s->litval = xrealloc(s->litval, 2 * n * sizeof(int8_t));
    s->level = xrealloc(s->level, n * sizeof(int32_t));
    s->reason = xrealloc(s->reason, n * sizeof(int32_t));
    s->phase = xrealloc(s->phase, n * sizeof(int8_t));
    s->activity = xrealloc(s->activity, n * sizeof(double));
    s->heap_entries = xrealloc(s->heap_entries, n * sizeof(int32_t));
    s->seen = xrealloc(s->seen, n * sizeof(int8_t));
    s->level_stamp = xrealloc(s->level_stamp, n * sizeof(uint32_t));
    s->watches = xrealloc(s->watches, 2 * n * sizeof(WVec));
    s->bins = xrealloc(s->bins, 2 * n * sizeof(WVec));
    s->var_cap = cap;
}

static void ensure_vars(Solver *s, int64_t num_vars) {
    if (num_vars <= s->num_vars)
        return;
    grow_var_arrays(s, num_vars);
    for (int64_t v = s->num_vars + 1; v <= num_vars; v++) {
        s->litval[2 * v] = -1;
        s->litval[2 * v + 1] = -1;
        s->level[v] = 0;
        s->reason[v] = -1;
        s->phase[v] = s->default_phase;
        s->activity[v] = 0.0;
        s->heap_entries[v] = 1;
        s->seen[v] = 0;
        s->level_stamp[v] = 0;
        memset(&s->watches[2 * v], 0, 2 * sizeof(WVec));
        memset(&s->bins[2 * v], 0, 2 * sizeof(WVec));
        heap_push(s, 0.0, (int32_t)v);
    }
    /* Every variable is on the trail at most once, so propagation can
     * append without a capacity check. */
    ivec_reserve(&s->trail, num_vars + 1);
    s->num_vars = (int32_t)num_vars;
}

static inline uint32_t next_stamp(Solver *s) {
    if (++s->stamp == 0) {
        memset(s->level_stamp, 0, (size_t)(s->num_vars + 1) * sizeof(uint32_t));
        s->stamp = 1;
    }
    return s->stamp;
}

static void sync_info(Solver *s) {
    s->info.trail_len = s->trail.len;
    s->info.decision_level = s->trail_lim.len;
    s->info.arena_len = s->arena.len;
    s->info.num_vars = s->num_vars;
    s->info.exported_len = s->exported.len;
}

/* ------------------------------------------------------------------ */
/* Clause database                                                     */
/* ------------------------------------------------------------------ */
static void watch_clause(Solver *s, int32_t offset, int32_t lit, int32_t blocker) {
    if (s->arena.data[offset] == 2)
        wvec_push(&s->bins[lit], blocker, offset);
    else
        wvec_push(&s->watches[lit], blocker, offset);
}

static int32_t append_clause(Solver *s, const int32_t *lits, int64_t n,
                             int32_t flags, int32_t lbd, double activity) {
    if (s->act_len == s->act_cap) {
        int64_t cap = s->act_cap ? s->act_cap * 2 : 64;
        s->act = xrealloc(s->act, (size_t)cap * sizeof(double));
        s->act_cap = cap;
    }
    s->act[s->act_len++] = activity;
    IVec *arena = &s->arena;
    int32_t offset = (int32_t)arena->len;
    ivec_reserve(arena, arena->len + HDR + n);
    int32_t *w = arena->data + arena->len;
    w[0] = (int32_t)n;
    w[1] = flags;
    w[2] = lbd;
    w[3] = (int32_t)(s->act_len - 1);
    w[4] = 2;
    memcpy(w + HDR, lits, (size_t)n * sizeof(int32_t));
    arena->len += HDR + n;
    return offset;
}

static inline void enqueue(Solver *s, int32_t lit, int32_t reason) {
    int32_t v = lit >> 1;
    s->litval[lit] = 1;
    s->litval[lit ^ 1] = 0;
    s->level[v] = (int32_t)s->trail_lim.len;
    s->reason[v] = reason;
    s->phase[v] = !(lit & 1);
    s->trail.data[s->trail.len++] = lit;
}

/* ------------------------------------------------------------------ */
/* Unit propagation: returns a conflicting arena offset or -1.          */
/* ------------------------------------------------------------------ */
static int32_t propagate(Solver *s) {
    int32_t *arena = s->arena.data;
    int8_t *litval = s->litval;
    int32_t *level_of = s->level;
    int32_t *reason = s->reason;
    int8_t *phase = s->phase;
    int32_t *trail = s->trail.data;
    int64_t qhead = s->qhead;
    int64_t entry_qhead = qhead;
    int64_t trail_len = s->trail.len;
    int32_t level = (int32_t)s->trail_lim.len;
    int32_t conflict = -1;

    while (qhead < trail_len) {
        int32_t false_lit = trail[qhead++] ^ 1;

        /* Binary implications first. */
        WVec *bl = &s->bins[false_lit];
        Watch *b = bl->data;
        for (int64_t i = 0, n = bl->len; i < n; i++) {
            int32_t other = b[i].lit;
            int8_t value = litval[other];
            if (value == -1) {
                int32_t v = other >> 1;
                litval[other] = 1;
                litval[other ^ 1] = 0;
                level_of[v] = level;
                reason[v] = b[i].ref;
                phase[v] = !(other & 1);
                trail[trail_len++] = other;
            } else if (value == 0) {
                conflict = b[i].ref;
                break;
            }
        }
        if (conflict != -1)
            break;

        /* Long clauses: one in-place compacting sweep (the Python core's
         * phase 1 is this loop while the read and write cursors agree). */
        WVec *wl = &s->watches[false_lit];
        Watch *w = wl->data;
        int64_t n = wl->len, i = 0, j = 0;
        while (i < n) {
            int32_t blocker = w[i].lit;
            if (litval[blocker] == 1) {
                w[j++] = w[i++];
                continue;
            }
            int32_t offset = w[i].ref;
            int32_t base = offset + HDR;
            int32_t first = arena[base];
            if (first == false_lit) {
                first = arena[base + 1];
                arena[base] = first;
                arena[base + 1] = false_lit;
            }
            int8_t first_value = litval[first];
            if (first_value == 1) {
                w[j].lit = first;
                w[j].ref = offset;
                j++;
                i++;
                continue;
            }
            int32_t size = arena[offset];
            int replaced = 0;
            if (size == 3) {
                int32_t lit_k = arena[base + 2];
                if (litval[lit_k] != 0) {
                    arena[base + 1] = lit_k;
                    arena[base + 2] = false_lit;
                    wvec_push(&s->watches[lit_k], first, offset);
                    replaced = 1;
                }
            } else {
                int32_t end = base + size;
                int32_t start = base + arena[offset + 4];
                int32_t k;
                for (k = start; k < end; k++) {
                    if (litval[arena[k]] != 0)
                        break;
                }
                if (k == end) {
                    for (k = base + 2; k < start; k++) {
                        if (litval[arena[k]] != 0)
                            break;
                    }
                    if (k == start)
                        k = -1;
                }
                if (k >= 0) {
                    int32_t lit_k = arena[k];
                    arena[base + 1] = lit_k;
                    arena[k] = false_lit;
                    arena[offset + 4] = k - base;
                    wvec_push(&s->watches[lit_k], first, offset);
                    replaced = 1;
                }
            }
            if (replaced) {
                i++;
                continue;
            }
            /* Unit or conflicting: the watcher stays put. */
            w[j].lit = first;
            w[j].ref = offset;
            j++;
            i++;
            if (first_value == 0) {
                while (i < n)
                    w[j++] = w[i++];
                conflict = offset;
                break;
            }
            int32_t v = first >> 1;
            litval[first] = 1;
            litval[first ^ 1] = 0;
            level_of[v] = level;
            reason[v] = offset;
            phase[v] = !(first & 1);
            trail[trail_len++] = first;
        }
        wl->len = j;
        if (conflict != -1)
            break;
    }
    s->trail.len = trail_len;
    s->qhead = qhead;
    s->info.propagations += qhead - entry_qhead;
    return conflict;
}

/* ------------------------------------------------------------------ */
/* Conflict analysis                                                   */
/* ------------------------------------------------------------------ */
static void rescale_var_activity(Solver *s) {
    int32_t nv = s->num_vars;
    for (int32_t v = 1; v <= nv; v++)
        s->activity[v] *= 1e-100;
    s->var_bump *= 1e-100;
    s->heap_len = 0;
    memset(s->heap_entries, 0, (size_t)(nv + 1) * sizeof(int32_t));
    for (int32_t v = 1; v <= nv; v++) {
        if (s->litval[2 * v] == -1) {
            heap_push(s, -s->activity[v], v);
            s->heap_entries[v] = 1;
        }
    }
}

static void rescale_clause_activity(Solver *s) {
    for (int64_t slot = 0; slot < s->act_len; slot++)
        s->act[slot] *= 1e-20;
    s->clause_bump *= 1e-20;
}

static int lit_redundant(Solver *s, int32_t literal, uint32_t levels) {
    int8_t *seen = s->seen;
    int32_t *level_of = s->level;
    int32_t *reason_of = s->reason;
    int32_t *arena = s->arena.data;
    uint32_t *level_stamp = s->level_stamp;
    int32_t reason = reason_of[literal >> 1];
    IVec *vars = &s->ccmin_vars, *ks = &s->ccmin_ks, *ends = &s->ccmin_ends;
    int64_t depth = 0;
    ivec_reserve(vars, 1);
    ivec_reserve(ks, 1);
    ivec_reserve(ends, 1);
    vars->data[0] = literal >> 1;
    ks->data[0] = reason + HDR;
    ends->data[0] = reason + HDR + arena[reason];
    while (depth >= 0) {
        int32_t k = ks->data[depth];
        int32_t end = ends->data[depth];
        int descended = 0;
        while (k < end) {
            int32_t other_var = arena[k] >> 1;
            k++;
            int8_t mark = seen[other_var];
            /* 1 = in clause, 2 = cached removable, 4 = on this DFS stack. */
            if (mark == 1 || mark == 2 || mark == 4 || level_of[other_var] == 0)
                continue;
            if (mark == 3 || level_stamp[level_of[other_var]] != levels ||
                reason_of[other_var] < 0) {
                if (mark == 0) {
                    seen[other_var] = 3;
                    ivec_push(&s->touched, other_var);
                }
                for (int64_t i = 0; i <= depth; i++) {
                    int32_t fr_var = vars->data[i];
                    if (seen[fr_var] == 4)
                        seen[fr_var] = 3;
                }
                return 0;
            }
            ks->data[depth] = k;
            seen[other_var] = 4;
            ivec_push(&s->touched, other_var);
            int32_t fr_reason = reason_of[other_var];
            depth++;
            ivec_reserve(vars, depth + 1);
            ivec_reserve(ks, depth + 1);
            ivec_reserve(ends, depth + 1);
            vars->data[depth] = other_var;
            ks->data[depth] = fr_reason + HDR;
            ends->data[depth] = fr_reason + HDR + arena[fr_reason];
            descended = 1;
            break;
        }
        if (descended)
            continue;
        int32_t fr_var = vars->data[depth];
        if (seen[fr_var] == 4)
            seen[fr_var] = 2;
        depth--;
    }
    return 1;
}

/* First-UIP analysis into s->learned (asserting literal first); returns
 * the backjump level. */
static int32_t analyse(Solver *s, int32_t conflict_offset) {
    int8_t *seen = s->seen;
    int32_t *level_of = s->level;
    int32_t *trail = s->trail.data;
    int32_t *arena = s->arena.data;
    int32_t *reason_of = s->reason;
    IVec *learned = &s->learned;
    learned->len = 0;
    ivec_push(learned, 0); /* slot 0: the asserting literal, set below */
    s->touched.len = 0;
    int64_t counter = 0;
    int32_t literal = -1;
    int32_t offset = conflict_offset;
    int64_t trail_index = s->trail.len - 1;
    int32_t current_level = (int32_t)s->trail_lim.len;

    for (;;) {
        int32_t slot = arena[offset + 3];
        double bumped = s->act[slot] + s->clause_bump;
        s->act[slot] = bumped;
        if (bumped > 1e20)
            rescale_clause_activity(s);
        int32_t base = offset + HDR;
        int32_t size = arena[offset];
        for (int32_t idx = 0; idx < size; idx++) {
            int32_t lit = arena[base + idx];
            if (lit == literal)
                continue;
            int32_t v = lit >> 1;
            if (seen[v] || level_of[v] == 0)
                continue;
            seen[v] = 1;
            ivec_push(&s->touched, v);
            double activity = s->activity[v] + s->var_bump;
            s->activity[v] = activity;
            if (activity > 1e100) {
                rescale_var_activity(s);
            } else {
                s->heap_entries[v]++;
                heap_push(s, -activity, v);
            }
            if (level_of[v] == current_level)
                counter++;
            else
                ivec_push(learned, lit);
        }
        int32_t lit = trail[trail_index];
        while (!seen[lit >> 1]) {
            trail_index--;
            lit = trail[trail_index];
        }
        literal = lit;
        int32_t v = lit >> 1;
        seen[v] = 0;
        counter--;
        trail_index--;
        if (counter == 0)
            break;
        offset = reason_of[v];
    }
    learned->data[0] = literal ^ 1;

    if (learned->len > 1) {
        uint32_t levels = next_stamp(s);
        for (int64_t k = 1; k < learned->len; k++)
            s->level_stamp[level_of[learned->data[k] >> 1]] = levels;
        int64_t kept = 1;
        for (int64_t k = 1; k < learned->len; k++) {
            int32_t lit = learned->data[k];
            if (reason_of[lit >> 1] < 0 || !lit_redundant(s, lit, levels))
                learned->data[kept++] = lit;
        }
        learned->len = kept;
    }
    for (int64_t k = 0; k < s->touched.len; k++)
        seen[s->touched.data[k]] = 0;

    if (learned->len == 1)
        return 0;
    int32_t *c = learned->data;
    int64_t max_index = 1;
    int32_t max_level = level_of[c[1] >> 1];
    for (int64_t k = 2; k < learned->len; k++) {
        int32_t lvl = level_of[c[k] >> 1];
        if (lvl > max_level) {
            max_index = k;
            max_level = lvl;
        }
    }
    int32_t tmp = c[1];
    c[1] = c[max_index];
    c[max_index] = tmp;
    return max_level;
}

static void backjump(Solver *s, int64_t level) {
    if (s->trail_lim.len <= level)
        return;
    int64_t limit = s->trail_lim.data[level];
    int32_t *trail = s->trail.data;
    for (int64_t index = s->trail.len - 1; index >= limit; index--) {
        int32_t lit = trail[index];
        int32_t v = lit >> 1;
        s->litval[lit] = -1;
        s->litval[lit ^ 1] = -1;
        s->reason[v] = -1;
        if (s->heap_entries[v] == 0) {
            s->heap_entries[v] = 1;
            heap_push(s, -s->activity[v], v);
        }
    }
    s->trail.len = limit;
    s->trail_lim.len = level;
    s->qhead = limit;
}

static int32_t decide(Solver *s) {
    while (s->heap_len > 0) {
        int32_t v = heap_pop(s);
        s->heap_entries[v]--;
        if (s->litval[2 * v] == -1)
            return s->phase[v] ? 2 * v : 2 * v + 1;
    }
    for (int32_t v = 1; v <= s->num_vars; v++) {
        if (s->litval[2 * v] == -1)
            return s->phase[v] ? 2 * v : 2 * v + 1;
    }
    return -1;
}

static int32_t add_learned_clause(Solver *s) {
    const int32_t *clause = s->learned.data;
    int64_t n = s->learned.len;
    uint32_t stamp = next_stamp(s);
    int32_t lbd = 0;
    for (int64_t k = 0; k < n; k++) {
        int32_t lvl = s->level[clause[k] >> 1];
        if (s->level_stamp[lvl] != stamp) {
            s->level_stamp[lvl] = stamp;
            lbd++;
        }
    }
    if (s->export_max_lbd >= 0 && lbd <= s->export_max_lbd &&
        n <= s->export_max_length) {
        /* Copy-out at learn time: compaction can move the arena clause. */
        for (int64_t k = 0; k < n; k++) {
            int32_t lit = clause[k];
            ivec_push(&s->exported, (lit & 1) ? -(lit >> 1) : (lit >> 1));
        }
        ivec_push(&s->exported, 0);
    }
    int32_t offset = append_clause(s, clause, n, F_LEARNED, lbd, s->clause_bump);
    s->info.learned_live++;
    s->info.learned_clauses++;
    watch_clause(s, offset, clause[0], clause[1]);
    watch_clause(s, offset, clause[1], clause[0]);
    return offset;
}

/* ------------------------------------------------------------------ */
/* Database reduction: stable rank on (-lbd, activity), mark the worse */
/* half dead (glue/binary/locked exempt), compact in place, remap.      */
/* ------------------------------------------------------------------ */
static inline int ranks_before(const Solver *s, int32_t a, int32_t b) {
    const int32_t *arena = s->arena.data;
    int32_t lbd_a = arena[a + 2], lbd_b = arena[b + 2];
    if (lbd_a != lbd_b)
        return lbd_a > lbd_b;
    return s->act[arena[a + 3]] < s->act[arena[b + 3]];
}

static void stable_sort(const Solver *s, int32_t *items, int32_t *tmp, int64_t n) {
    for (int64_t width = 1; width < n; width *= 2) {
        for (int64_t lo = 0; lo < n; lo += 2 * width) {
            int64_t mid = lo + width < n ? lo + width : n;
            int64_t hi = lo + 2 * width < n ? lo + 2 * width : n;
            int64_t i = lo, j = mid, k = lo;
            while (i < mid && j < hi)
                tmp[k++] = ranks_before(s, items[j], items[i]) ? items[j++] : items[i++];
            while (i < mid)
                tmp[k++] = items[i++];
            while (j < hi)
                tmp[k++] = items[j++];
        }
        memcpy(items, tmp, (size_t)n * sizeof(int32_t));
    }
}

static void reduce_learned(Solver *s) {
    int32_t *arena = s->arena.data;
    int64_t top = s->arena.len;
    IVec offsets = {0, 0, 0};
    for (int64_t off = 0; off < top; off += HDR + arena[off]) {
        if (arena[off + 1] & F_LEARNED)
            ivec_push(&offsets, (int32_t)off);
    }
    if (offsets.len == 0) {
        free(offsets.data);
        return;
    }
    int32_t *trail = s->trail.data;
    for (int64_t k = 0; k < s->trail.len; k++) {
        int32_t r = s->reason[trail[k] >> 1];
        if (r >= 0)
            arena[r + 1] |= F_LOCKED;
    }
    int32_t *tmp = xrealloc(NULL, (size_t)offsets.len * sizeof(int32_t));
    stable_sort(s, offsets.data, tmp, offsets.len);
    free(tmp);
    int64_t removed = 0;
    for (int64_t k = 0; k < offsets.len / 2; k++) {
        int32_t off = offsets.data[k];
        if (!(arena[off + 1] & F_LOCKED) && arena[off] > 2 && arena[off + 2] > 2) {
            arena[off + 1] |= F_DEAD;
            removed++;
        }
    }
    free(offsets.data);
    for (int64_t k = 0; k < s->trail.len; k++) {
        int32_t r = s->reason[trail[k] >> 1];
        if (r >= 0)
            arena[r + 1] &= ~F_LOCKED;
    }
    if (removed == 0)
        return;

    /* Compact: live clauses slide down, activities re-slot in lockstep. */
    int32_t *remap = xrealloc(NULL, (size_t)(top ? top : 1) * sizeof(int32_t));
    int64_t write = 0, read = 0, slots = 0;
    while (read < top) {
        int64_t length = HDR + arena[read];
        if (arena[read + 1] & F_DEAD) {
            remap[read] = -1;
            read += length;
            continue;
        }
        if (write != read)
            memmove(arena + write, arena + read, (size_t)length * sizeof(int32_t));
        remap[read] = (int32_t)write;
        s->act[slots] = s->act[arena[write + 3]];
        arena[write + 3] = (int32_t)slots;
        slots++;
        write += length;
        read += length;
    }
    s->arena.len = write;
    s->act_len = slots;
    s->info.learned_live -= removed;

    int64_t num_lits = 2 * ((int64_t)s->num_vars + 1);
    for (int64_t lit = 0; lit < num_lits; lit++) {
        WVec *wl = &s->watches[lit];
        int64_t keep = 0;
        for (int64_t i = 0; i < wl->len; i++) {
            int32_t moved = remap[wl->data[i].ref];
            if (moved >= 0) {
                wl->data[keep].lit = wl->data[i].lit;
                wl->data[keep].ref = moved;
                keep++;
            }
        }
        wl->len = keep;
        WVec *bl = &s->bins[lit];
        for (int64_t i = 0; i < bl->len; i++)
            bl->data[i].ref = remap[bl->data[i].ref];
    }
    for (int64_t k = 0; k < s->trail.len; k++) {
        int32_t v = trail[k] >> 1;
        if (s->reason[v] >= 0)
            s->reason[v] = remap[s->reason[v]];
    }
    free(remap);
}

/* ------------------------------------------------------------------ */
/* Public entry points                                                 */
/* ------------------------------------------------------------------ */
void *qs_new(int32_t default_phase, double var_decay, double clause_decay,
             int32_t restart_base) {
    Solver *s = xrealloc(NULL, sizeof(Solver));
    memset(s, 0, sizeof(Solver));
    s->default_phase = (int8_t)(default_phase != 0);
    s->var_decay = var_decay;
    s->clause_decay = clause_decay;
    s->restart_base = restart_base;
    s->clause_bump = 1.0;
    s->var_bump = 1.0;
    s->export_max_lbd = -1;
    s->export_max_length = 8;
    s->info.reduce_threshold = 4000;
    s->max_conflicts = -1;
    grow_var_arrays(s, 0);
    s->litval[0] = -1;
    s->litval[1] = -1;
    s->level[0] = 0;
    s->reason[0] = -1;
    s->phase[0] = s->default_phase;
    s->activity[0] = 0.0;
    s->heap_entries[0] = 0;
    s->seen[0] = 0;
    s->level_stamp[0] = 0;
    memset(s->watches, 0, 2 * sizeof(WVec));
    memset(s->bins, 0, 2 * sizeof(WVec));
    ivec_reserve(&s->trail, 1);
    sync_info(s);
    return s;
}

void qs_free(void *handle) {
    Solver *s = handle;
    if (!s)
        return;
    int64_t num_lits = 2 * ((int64_t)s->num_vars + 1);
    for (int64_t lit = 0; lit < num_lits; lit++) {
        free(s->watches[lit].data);
        free(s->bins[lit].data);
    }
    free(s->watches);
    free(s->bins);
    free(s->litval);
    free(s->level);
    free(s->reason);
    free(s->phase);
    free(s->activity);
    free(s->heap_entries);
    free(s->seen);
    free(s->level_stamp);
    free(s->heap);
    free(s->act);
    free(s->lit_mark);
    IVec *vecs[] = {&s->arena, &s->trail, &s->trail_lim, &s->touched,
                    &s->learned, &s->ccmin_vars, &s->ccmin_ks, &s->ccmin_ends,
                    &s->exported, &s->scratch, &s->assumptions};
    for (size_t k = 0; k < sizeof(vecs) / sizeof(vecs[0]); k++)
        free(vecs[k]->data);
    free(s);
}

Info *qs_info(void *handle) { return &((Solver *)handle)->info; }

void qs_ensure_vars(void *handle, int64_t num_vars) {
    Solver *s = handle;
    ensure_vars(s, num_vars);
    sync_info(s);
}

void qs_backjump0(void *handle) {
    Solver *s = handle;
    backjump(s, 0);
    sync_info(s);
}

static void add_one_clause(Solver *s, const int32_t *lits, int32_t n) {
    backjump(s, 0);
    if (s->info.trivially_unsat)
        return;
    /* Normalise: drop duplicates (first occurrence wins), reject
     * tautologies -- before the variable space grows, as in Python. */
    int64_t max_var = 0;
    for (int32_t k = 0; k < n; k++) {
        int64_t v = lits[k] > 0 ? lits[k] : -(int64_t)lits[k];
        if (v > max_var)
            max_var = v;
    }
    int64_t need = 2 * (max_var + 1);
    if (need > s->lit_mark_cap) {
        s->lit_mark = xrealloc(s->lit_mark, (size_t)need);
        memset(s->lit_mark + s->lit_mark_cap, 0, (size_t)(need - s->lit_mark_cap));
        s->lit_mark_cap = need;
    }
    IVec *clause = &s->scratch;
    clause->len = 0;
    int tautology = 0;
    for (int32_t k = 0; k < n; k++) {
        int32_t lit = lits[k];
        int32_t enc = lit > 0 ? 2 * lit : -2 * lit + 1;
        if (s->lit_mark[enc ^ 1]) {
            tautology = 1;
            break;
        }
        if (!s->lit_mark[enc]) {
            s->lit_mark[enc] = 1;
            ivec_push(clause, enc);
        }
    }
    for (int64_t k = 0; k < clause->len; k++)
        s->lit_mark[clause->data[k]] = 0;
    if (tautology)
        return;
    ensure_vars(s, max_var);
    /* Simplify against the permanent level-0 assignment. */
    int64_t kept = 0;
    for (int64_t k = 0; k < clause->len; k++) {
        int32_t enc = clause->data[k];
        int8_t value = s->litval[enc];
        if (value == 1)
            return;
        if (value == -1)
            clause->data[kept++] = enc;
    }
    clause->len = kept;
    if (kept == 0) {
        s->info.trivially_unsat = 1;
        return;
    }
    if (kept == 1) {
        enqueue(s, clause->data[0], -1);
        if (propagate(s) != -1)
            s->info.trivially_unsat = 1;
        return;
    }
    int32_t offset = append_clause(s, clause->data, kept, 0, 0, 0.0);
    watch_clause(s, offset, clause->data[0], clause->data[1]);
    watch_clause(s, offset, clause->data[1], clause->data[0]);
}

/* Add *count* clauses: lens[i] literals each, concatenated in *lits*
 * (signed DIMACS literals). */
void qs_add_clauses(void *handle, const int32_t *lens, int64_t count,
                    const int32_t *lits) {
    Solver *s = handle;
    for (int64_t c = 0; c < count; c++) {
        add_one_clause(s, lits, lens[c]);
        lits += lens[c];
    }
    sync_info(s);
}

void qs_set_export(void *handle, int32_t max_lbd, int32_t max_length) {
    Solver *s = handle;
    s->export_max_lbd = max_lbd;
    s->export_max_length = max_length;
}

/* Move the export buffer into *out* (info.exported_len ints). */
void qs_drain_exported(void *handle, int32_t *out) {
    Solver *s = handle;
    memcpy(out, s->exported.data, (size_t)s->exported.len * sizeof(int32_t));
    s->exported.len = 0;
    sync_info(s);
}

/* LBDs of the live learned clauses in arena order; returns the count. */
int64_t qs_learned_lbds(void *handle, int32_t *out) {
    Solver *s = handle;
    const int32_t *arena = s->arena.data;
    int64_t count = 0;
    for (int64_t off = 0; off < s->arena.len; off += HDR + arena[off]) {
        if (arena[off + 1] & F_LEARNED)
            out[count++] = arena[off + 2];
    }
    return count;
}

/* Model as 0/1 bytes for variables 0..num_vars (byte 0 always 0). */
void qs_model(void *handle, uint8_t *out) {
    Solver *s = handle;
    out[0] = 0;
    for (int32_t v = 1; v <= s->num_vars; v++)
        out[v] = s->litval[2 * v] == 1;
}

/* Begin a solve call.  The driver has already backjumped to level 0 and
 * checked the trivially-UNSAT flag and the deadline. */
int32_t qs_solve_start(void *handle, const int32_t *assumptions, int64_t count,
                       int64_t max_conflicts, int32_t has_deadline) {
    Solver *s = handle;
    int64_t max_var = 0;
    for (int64_t k = 0; k < count; k++) {
        int64_t v = assumptions[k] > 0 ? assumptions[k] : -(int64_t)assumptions[k];
        if (v > max_var)
            max_var = v;
    }
    ensure_vars(s, max_var);
    s->assumptions.len = 0;
    for (int64_t k = 0; k < count; k++) {
        int32_t a = assumptions[k];
        ivec_push(&s->assumptions, a > 0 ? 2 * a : -2 * a + 1);
    }
    s->max_conflicts = max_conflicts;
    s->entry_conflicts = s->info.conflicts;
    s->has_deadline = has_deadline;
    s->info.call_max_level = 0;
    s->resume = R_TOP;
    int32_t event = EV_CONTINUE;
    if (propagate(s) != -1) {
        s->info.trivially_unsat = 1;
        event = EV_UNSAT;
    } else {
        s->until_restart = s->restart_base * luby(1);
        s->restart_count = 1;
        s->since_restart = 0;
        s->countdown = DEADLINE_STRIDE;
    }
    sync_info(s);
    return event;
}

static inline void note_level(Solver *s) {
    if (s->trail_lim.len > s->info.call_max_level)
        s->info.call_max_level = s->trail_lim.len;
}

/* Learn from *conflict* (after the budget and deadline checks). */
static int32_t learn(Solver *s, int32_t conflict) {
    if (s->trail_lim.len == 0) {
        s->info.trivially_unsat = 1;
        return EV_UNSAT;
    }
    int32_t backjump_level = analyse(s, conflict);
    backjump(s, backjump_level);
    if (s->learned.len == 1) {
        int32_t unit = s->learned.data[0];
        if (s->export_max_lbd >= 0) {
            ivec_push(&s->exported, (unit & 1) ? -(unit >> 1) : (unit >> 1));
            ivec_push(&s->exported, 0);
        }
        int8_t value = s->litval[unit];
        if (value == 0) {
            s->info.trivially_unsat = 1;
            return EV_UNSAT;
        }
        if (value == -1)
            enqueue(s, unit, -1);
    } else {
        int32_t offset = add_learned_clause(s);
        enqueue(s, s->learned.data[0], offset);
    }
    s->var_bump /= s->var_decay;
    s->clause_bump /= s->clause_decay;
    return EV_CONTINUE;
}

/* Apply the next pending assumption or make a decision. */
static int32_t decide_step(Solver *s) {
    int8_t *litval = s->litval;
    for (int64_t k = 0; k < s->assumptions.len; k++) {
        int32_t a = s->assumptions.data[k];
        if (litval[a] == 0) {
            backjump(s, 0);
            return EV_ASSUMP_UNSAT;
        }
        if (litval[a] == -1) {
            ivec_push(&s->trail_lim, (int32_t)s->trail.len);
            enqueue(s, a, -1);
            return EV_CONTINUE;
        }
    }
    int32_t decision = decide(s);
    if (decision < 0) {
        note_level(s);
        return EV_SAT;
    }
    s->info.decisions++;
    ivec_push(&s->trail_lim, (int32_t)s->trail.len);
    note_level(s);
    enqueue(s, decision, -1);
    if (s->has_deadline && --s->countdown <= 0) {
        s->countdown = DEADLINE_STRIDE;
        return EV_POLL;
    }
    return EV_CONTINUE;
}

static int32_t search(Solver *s) {
    int32_t event;
    int32_t resume = s->resume;
    s->resume = R_TOP;
    if (resume == R_CONFLICT) {
        if ((event = learn(s, s->pending_conflict)) != EV_CONTINUE)
            return event;
    } else if (resume == R_DECIDE) {
        if ((event = decide_step(s)) != EV_CONTINUE)
            return event;
    }
    for (;;) {
        int32_t conflict = propagate(s);
        if (conflict != -1) {
            s->info.conflicts++;
            s->since_restart++;
            if (s->max_conflicts >= 0 &&
                s->info.conflicts - s->entry_conflicts > s->max_conflicts) {
                backjump(s, 0);
                return EV_BUDGET;
            }
            if (s->has_deadline && --s->countdown <= 0) {
                s->countdown = DEADLINE_STRIDE;
                s->pending_conflict = conflict;
                s->resume = R_CONFLICT;
                return EV_POLL;
            }
            if ((event = learn(s, conflict)) != EV_CONTINUE)
                return event;
            continue;
        }
        if (s->since_restart >= s->until_restart) {
            s->info.restarts++;
            s->restart_count++;
            s->since_restart = 0;
            s->until_restart = s->restart_base * luby(s->restart_count);
            s->info.restart_interval = s->until_restart;
            return EV_RESTART; /* the driver backjumps after sampling */
        }
        if (s->info.learned_live > s->info.reduce_threshold && s->trail_lim.len == 0) {
            s->info.reduce_before = s->info.learned_live;
            reduce_learned(s);
            s->info.reduce_threshold += 1000;
            s->resume = R_DECIDE;
            return EV_REDUCED;
        }
        if ((event = decide_step(s)) != EV_CONTINUE)
            return event;
    }
}

/* Run the search until the next cold event; returns its EV_* code. */
int32_t qs_search(void *handle) {
    Solver *s = handle;
    int32_t event = search(s);
    sync_info(s);
    return event;
}
