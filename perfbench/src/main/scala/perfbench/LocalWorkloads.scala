package perfbench

import repro.core.Peeler
import repro.graph.LocalGraph
import scala.collection.mutable

/** The two workloads of the local engine, `Peeler` over `LocalGraph`. */
object LocalWorkloads {

  /** `Peeler.fpa`, |Q|=2, LFR n=100k: one traversal of a giant component
    * per query, plus the multi-query Steiner path.
    */
  def fpa(seed: Long, tracer: Tracer): Workload =
    new Local(n = 100000, qSize = 2, perRound = 16, warm = 32, builds = 3, nca = false, seed, tracer)

  /** `Peeler.nca`, |Q|=1, LFR n=2k: one articulation scan per removal. */
  def nca(seed: Long, tracer: Tracer): Workload =
    new Local(n = 2000, qSize = 1, perRound = 4, warm = 1, builds = 61, nca = true, seed, tracer)

  private final class Local(n: Int, qSize: Int, perRound: Int, warm: Int, val builds: Int,
                            nca: Boolean, seed: Long, tracer: Tracer) extends Workload {
    private var edges: Array[(Int, Int)] = _
    private var checker: Checker = _
    private var g: LocalGraph = _
    var round: IndexedSeq[Op] = IndexedSeq.empty

    def prepare(): Unit = {
      val input = Inputs.lfr(n, seed)
      edges = input.edges
      round = Inputs.querySets(input, perRound, qSize, seed + 1).map(Op(_))
      checker = new Checker(n, edges)
    }
    def build(): Unit = g = tracer.span("graph.build")(LocalGraph.fromEdges(n, edges))
    def discard(): Unit = g = null
    /** `warm` queries, cycling through the round. */
    def warmUp(): Unit = (0 until warm).foreach(i => query(round(i % round.length)))
    val querySpan: String = if (nca) "peeler.nca" else "peeler.fpa"
    def query(op: Op): Answer = {
      val r = tracer.measured(querySpan)(
        if (nca) Peeler.nca(g, op.queries) else Peeler.fpa(g, op.queries))
      Answer(r.ok, r.community, r.score)
    }
    def replay(op: Op, a: Answer): Unit = replayLayers(g, op, a, nca, tracer)
    def check(op: Op, a: Answer): Option[String] = checker.check(a.ok, op.queries, a.community, a.score)
  }

  /** Traced runs: after a `Peeler` query, call the `LocalGraph` functions it
    * runs inside, on the same inputs, each as its own span, and record the
    * sizes it works on.
    *  - FPA: componentOf, bfsParents (|Q|>1), bfsDist from the protected
    *    set; `peeler.fpa_rest_ms` is the FPA span minus these three.
    *  - NCA: componentOf and bfsDist; NCA then calls articulationPoints once
    *    per removal plus a last time when nothing is removable, which for
    *    |Q|=1 is once per node of the component (`graph.articulation_calls`).
    *  - Both: one articulationPoints call on the component.
    */
  def replayLayers(g: LocalGraph, op: Op, a: Answer, nca: Boolean, tracer: Tracer): Unit = {
    def last(metric: String) = tracer.samplesOf(metric).lastOption.getOrElse(0.0)
    val q0 = op.queries.head
    val comp = tracer.span("graph.component")(g.componentOf(q0))
    val prot = mutable.BitSet(op.queries: _*)
    var graphMs = last("graph.component_ms")
    if (!nca && op.queries.length > 1) {
      val parents = tracer.span("graph.bfs_parents")(g.bfsParents(q0, comp))
      graphMs += last("graph.bfs_parents_ms")
      for (q <- op.queries) {
        var v = parents(q)
        while (v != -1 && !prot(v)) { prot += v; v = parents(v) }
      }
    }
    tracer.span("graph.bfs")(g.bfsDist(prot, comp))
    graphMs += last("graph.bfs_ms")
    tracer.span("graph.articulation")(g.articulationPoints(comp))
    tracer.sample("peeler.component_nodes", comp.size)
    tracer.sample("peeler.community_nodes", a.community.size)
    tracer.sample("peeler.touched_per_kept", comp.size.toDouble / a.community.size)
    if (nca) tracer.sample("graph.articulation_calls", comp.size)
    else tracer.sampleTime("peeler.fpa_rest_ms", last("peeler.fpa_ms") - graphMs)
  }
}
