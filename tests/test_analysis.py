"""Tests for CFG, dominators, loops, liveness, def-use, and call graph."""

from repro.analysis import (
    CFG,
    CallGraph,
    DefUse,
    DominatorTree,
    Liveness,
    LoopInfo,
)
from repro.lang import compile_source


def func_of(src, name="main"):
    return compile_source(src, "t").function(name)


LOOP_SRC = """
int main() {
  int s = 0;
  for (int i = 0; i < 10; i = i + 1) {
    for (int j = 0; j < 10; j = j + 1) {
      s = s + j;
    }
  }
  return s;
}
"""

DIAMOND_SRC = """
int main() {
  int x = 1;
  int y;
  if (x) { y = 2; } else { y = 3; }
  return y;
}
"""


class TestCFG:
    def test_preds_and_succs_consistent(self):
        func = func_of(DIAMOND_SRC)
        cfg = CFG(func)
        for name in func.blocks:
            for succ in cfg.successors(name):
                assert name in cfg.predecessors(succ)

    def test_entry_has_no_preds(self):
        cfg = CFG(func_of(DIAMOND_SRC))
        assert cfg.predecessors(cfg.entry) == []

    def test_rpo_starts_at_entry(self):
        cfg = CFG(func_of(LOOP_SRC))
        rpo = cfg.reverse_postorder()
        assert rpo[0] == cfg.entry
        assert set(rpo) == cfg.reachable()

    def test_rpo_visits_preds_first_in_acyclic(self):
        cfg = CFG(func_of(DIAMOND_SRC))
        index = {n: i for i, n in enumerate(cfg.reverse_postorder())}
        for name in cfg.reachable():
            for succ in cfg.successors(name):
                if index[succ] > index[name]:
                    continue  # back edge in loops; diamond has none
                assert index[succ] > index[name] or succ == name


class TestDominators:
    def test_entry_dominates_all(self):
        cfg = CFG(func_of(LOOP_SRC))
        dom = DominatorTree(cfg)
        for name in cfg.reachable():
            assert dom.dominates(cfg.entry, name)

    def test_self_domination(self):
        cfg = CFG(func_of(DIAMOND_SRC))
        dom = DominatorTree(cfg)
        for name in cfg.reachable():
            assert dom.dominates(name, name)

    def test_diamond_join_dominated_by_split(self):
        func = func_of(DIAMOND_SRC)
        cfg = CFG(func)
        dom = DominatorTree(cfg)
        # The join block is dominated by the entry, not by either arm.
        join = [
            n
            for n in cfg.reachable()
            if len(cfg.predecessors(n)) == 2
        ]
        assert join
        arms = cfg.predecessors(join[0])
        assert not dom.dominates(arms[0], join[0])
        assert not dom.dominates(arms[1], join[0])
        assert dom.dominates(cfg.entry, join[0])

    def test_idom_of_entry_is_none(self):
        cfg = CFG(func_of(DIAMOND_SRC))
        dom = DominatorTree(cfg)
        reachable = cfg.reachable()
        assert [b for b in reachable if dom.dominates(b, cfg.entry)] == [cfg.entry]

    def test_dominated_set(self):
        cfg = CFG(func_of(LOOP_SRC))
        dom = DominatorTree(cfg)
        reachable = cfg.reachable()
        assert {b for b in reachable if dom.dominates(cfg.entry, b)} == reachable


class TestLoops:
    def test_nested_loop_depths(self):
        func = func_of(LOOP_SRC)
        cfg = CFG(func)
        loops = LoopInfo(cfg)
        depths = [loops.depth_of(b) for b in cfg.reachable()]
        assert max(depths) == 2  # doubly nested
        assert min(depths) == 0  # entry/exit outside loops

    def test_two_loops_found(self):
        loops = LoopInfo(CFG(func_of(LOOP_SRC)))
        assert len(loops.loops) == 2

    def test_nesting_structure(self):
        loops = LoopInfo(CFG(func_of(LOOP_SRC)))
        inner = max(loops.loops, key=lambda l: l.depth)
        assert inner.depth == 2
        assert inner.parent is not None
        assert inner in inner.parent.children

    def test_static_frequency(self):
        func = func_of(LOOP_SRC)
        cfg = CFG(func)
        loops = LoopInfo(cfg)
        freqs = {b: loops.static_frequency(b) for b in cfg.reachable()}
        assert max(freqs.values()) == 100.0
        assert min(freqs.values()) == 1.0

    def test_no_loops_in_straightline(self):
        loops = LoopInfo(CFG(func_of(DIAMOND_SRC)))
        assert loops.loops == []


class TestLiveness:
    def test_loop_carried_value_live(self):
        func = func_of(LOOP_SRC)
        live = Liveness(func)
        # s is live across the loop back edge: live-out of some block.
        s_regs = [
            op.dest.vid
            for op in func.operations()
            if op.dest is not None and op.dest.name == "s"
        ]
        assert s_regs
        assert live.live_across(s_regs[0])

    def test_dead_temp_not_live_across(self):
        src = "int main() { int a = 1 + 2; return a; }"
        func = func_of(src)
        live = Liveness(func)
        # Single-block function: nothing is live across block boundaries.
        for op in func.operations():
            if op.dest is not None:
                assert not live.live_across(op.dest.vid)

    def test_live_in_of_entry_is_param_only(self):
        src = "int f(int a) { return a + 1; } int main() { return f(1); }"
        func = func_of(src, "f")
        live = Liveness(func)
        # 'a' is used in entry, so it is in entry's use set (live-in).
        assert func.params[0].vid in live.live_in[func.entry.name]

    def test_unreachable_block_is_dead_and_leaks_nothing(self):
        from repro.ir import Function, Opcode, Operation, VirtualRegister
        from repro.ir.types import INT

        a = VirtualRegister(0, INT, "a")
        func = Function("f", [a], INT)
        stray = func.new_vreg(INT, "stray")
        func.add_block("entry").append(_br("exit"))
        func.add_block("exit").append(Operation(Opcode.RET, srcs=[a]))
        # The island reads a register nothing defines and branches into
        # a reachable block, but never runs: its sets stay empty and its
        # uses must not flow into any reachable block's live sets.
        func.add_block("island").append(
            Operation(Opcode.CBR, srcs=[stray], targets=["exit", "exit"])
        )
        live = Liveness(func)
        assert live.live_in["island"] == set()
        assert live.live_out_of("island") == set()
        assert live.live_in["entry"] == {a.vid}
        assert live.live_out_of("entry") == {a.vid}
        assert not live.live_across(stray.vid)


class TestDefUse:
    def test_straightline_chain(self):
        func = func_of("int main() { int a = 2; int b = a + 3; return b; }")
        du = DefUse(func)
        defs = {op.dest.name: op for op in func.operations() if op.dest}
        a_def = defs["a"]
        users = [op for op in func.operations() if op.uid in du.uses_of[a_def.uid]]
        assert any(u.opcode.mnemonic == "add" for u in users)

    def test_multiple_reaching_defs(self):
        src = """
        int main() {
          int x = 1;
          if (x) { x = 2; } else { x = 3; }
          return x;
        }
        """
        func = func_of(src)
        du = DefUse(func)
        ret = [op for op in func.operations() if op.opcode.mnemonic == "ret"][0]
        vid = ret.srcs[0].vid
        reaching = du.defs_for[(ret.uid, vid)]
        assert len(reaching) == 2

    def test_param_uses_tracked(self):
        src = "int f(int a) { return a * a; } int main() { return f(3); }"
        func = func_of(src, "f")
        du = DefUse(func)
        uses = du.param_uses[func.params[0].vid]
        assert len(uses) >= 1

    def test_loop_carried_edge(self):
        func = func_of(LOOP_SRC)
        du = DefUse(func)
        # The increment i = i + 1 must reach the loop-header compare.
        adds = [
            op for op in func.operations()
            if op.opcode.mnemonic == "add" and op.dest is not None
        ]
        assert any(du.uses_of.get(a.uid) for a in adds)


class TestCallGraph:
    SRC = """
    int leaf(int x) { return x + 1; }
    int mid(int x) { return leaf(x) + leaf(x + 1); }
    int main() { return mid(1); }
    """

    def test_edges(self):
        cg = CallGraph(compile_source(self.SRC, "t"))
        assert cg.callees["main"] == {"mid"}
        assert cg.callees["mid"] == {"leaf"}
        assert cg.callers["leaf"] == {"mid"}

    def test_call_sites_counted(self):
        cg = CallGraph(compile_source(self.SRC, "t"))
        assert len(cg.call_sites["leaf"]) == 2

    def test_bottom_up_order(self):
        cg = CallGraph(compile_source(self.SRC, "t"))
        order = cg.bottom_up_order()
        assert order.index("leaf") < order.index("mid") < order.index("main")

    def test_recursion_tolerated(self):
        src = "int f(int n) { if (n) { return f(n - 1); } return 0; }" \
              "int main() { return f(3); }"
        cg = CallGraph(compile_source(src, "t"))
        assert "f" in cg.bottom_up_order()


# -- edge cases: unreachable blocks, self-loops, non-unit steps ----------------------


def _ir_func(name="f"):
    from repro.ir import Function
    from repro.ir.types import INT

    return Function(name, [], INT)


def _ret(value=0):
    from repro.ir import Constant, Opcode, Operation

    return Operation(Opcode.RET, srcs=[Constant(value)])


def _br(target):
    from repro.ir import Opcode, Operation

    return Operation(Opcode.BR, targets=[target])


def _cbr(cond, if_true, if_false):
    from repro.ir import Opcode, Operation

    return Operation(Opcode.CBR, srcs=[cond], targets=[if_true, if_false])


class TestDominatorEdgeCases:
    def _with_island(self):
        func = _ir_func()
        func.add_block("entry").append(_ret())
        func.add_block("island").append(_ret(1))
        return CFG(func)

    def test_unreachable_block_has_no_idom(self):
        cfg = self._with_island()
        dom = DominatorTree(cfg)
        assert "island" not in dom.idom

    def test_unreachable_block_dominates_nothing(self):
        cfg = self._with_island()
        dom = DominatorTree(cfg)
        assert not any(dom.dominates("island", b) for b in cfg.reachable())

    def test_self_loop_idom_is_predecessor(self):
        from repro.ir import Constant

        func = _ir_func()
        func.add_block("entry").append(_br("spin"))
        func.add_block("spin").append(_cbr(Constant(1), "spin", "exit"))
        func.add_block("exit").append(_ret())
        dom = DominatorTree(CFG(func))
        # The back edge from the block to itself must not disturb the
        # idom: a block never immediately dominates itself.
        assert dom.idom["spin"] == "entry"
        assert dom.dominates("spin", "exit")

    def test_unreachable_cycle_stays_out_of_tree(self):
        func = _ir_func()
        func.add_block("entry").append(_ret())
        func.add_block("a").append(_br("b"))
        func.add_block("b").append(_br("a"))
        dom = DominatorTree(CFG(func))
        assert set(dom.idom) == {"entry"}


class TestLoopEdgeCases:
    def test_self_loop_is_a_loop(self):
        from repro.ir import Constant

        func = _ir_func()
        func.add_block("entry").append(_br("spin"))
        func.add_block("spin").append(_cbr(Constant(1), "spin", "exit"))
        func.add_block("exit").append(_ret())
        loops = LoopInfo(CFG(func))
        assert len(loops.loops) == 1
        loop = loops.loops[0]
        assert loop.header == "spin"
        assert loop.body == {"spin"}
        assert loops.depth_of("spin") == 1
        assert loops.depth_of("entry") == 0

    def test_unreachable_cycle_is_not_a_loop(self):
        func = _ir_func()
        func.add_block("entry").append(_ret())
        func.add_block("a").append(_br("b"))
        func.add_block("b").append(_br("a"))
        loops = LoopInfo(CFG(func))
        assert loops.loops == []

    def test_nested_non_unit_steps(self):
        src = """
        int main() {
          int s = 0;
          for (int i = 0; i < 20; i = i + 3) {
            for (int j = 10; j > 0; j = j - 2) {
              s = s + j;
            }
          }
          return s;
        }
        """
        func = func_of(src)
        cfg = CFG(func)
        loops = LoopInfo(cfg)
        assert len(loops.loops) == 2
        inner = max(loops.loops, key=lambda l: l.depth)
        outer = min(loops.loops, key=lambda l: l.depth)
        assert inner.depth == 2 and outer.depth == 1
        assert inner.parent is outer
        # Every inner-loop block sits inside the outer loop's body too.
        assert inner.body <= outer.body

    def test_loop_with_unreachable_block_alongside(self):
        func = _ir_func()
        from repro.ir import Constant

        func.add_block("entry").append(_br("head"))
        func.add_block("head").append(_cbr(Constant(1), "head", "exit"))
        func.add_block("exit").append(_ret())
        func.add_block("island").append(_br("head"))
        loops = LoopInfo(CFG(func))
        # The island branches into the loop but is unreachable; it must
        # not leak into the loop body.
        assert len(loops.loops) == 1
        assert "island" not in loops.loops[0].body
