package perfbench

import repro.graph.GraphGen
import scala.util.Random

/** A generated graph as the benchmark hands it to the engines: an in-memory
  * edge list plus the ground-truth communities the queries are drawn from.
  */
final case class GraphInput(n: Int, edges: Array[(Int, Int)], communities: IndexedSeq[Set[Int]])

object Inputs {

  /** LFR with the parameters of the repository's Fig 11 scalability
    * experiment: average degree 20, maximum degree 200, mixing 0.4,
    * community sizes 20..1000.
    */
  def lfr(n: Int, seed: Long): GraphInput = {
    val gt = GraphGen.lfr(n, davg = 20.0, dmax = 200, mu = 0.4, minC = 20, maxC = 1000, seed)
    GraphInput(n, gt.graph.edges.toArray, gt.communities)
  }

  /** `count` query sets of `qSize` distinct nodes. Each set comes from one
    * ground-truth community (of at least max(qSize, 2) nodes) drawn
    * uniformly, and its nodes are drawn uniformly from that community.
    */
  def querySets(g: GraphInput, count: Int, qSize: Int, seed: Long): IndexedSeq[Seq[Int]] = {
    val rnd = new Random(seed)
    val eligible = g.communities.filter(_.size >= math.max(qSize, 2)).map(_.toArray.sorted)
    IndexedSeq.fill(count) {
      val comm = eligible(rnd.nextInt(eligible.length))
      rnd.shuffle(comm.toList).take(qSize).sorted
    }
  }
}
