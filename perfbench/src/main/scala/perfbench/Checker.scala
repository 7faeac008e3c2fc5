package perfbench

import repro.graph.GraphGen

/** Checks engine answers against the benchmark's own adjacency, built from
  * the edge list without any code of `repro.graph` or `repro.core`.
  *
  * An answer (ok, Q, C, score) passes when
  *  - ok is true;
  *  - Q ⊆ C;
  *  - C is connected;
  *  - score equals DM(C) = (l_C − d_C²/(4|E|)) / |C| within a relative 1e-9;
  *  - DM(C) ≥ DM of the component of Q, which every peeling order considers;
  *  - C equals `expected`, when a reference community is given.
  */
final class Checker(n: Int, edges: Array[(Int, Int)]) {
  // CSR adjacency: sorted, without self-loops or parallel edges
  private val (offsets, targets) = {
    val cnt = new Array[Int](n + 1)
    edges.foreach { case (u, v) =>
      require(u >= 0 && u < n && v >= 0 && v < n, s"edge ($u,$v) out of range n=$n")
      if (u != v) { cnt(u + 1) += 1; cnt(v + 1) += 1 }
    }
    for (i <- 1 to n) cnt(i) += cnt(i - 1)
    val raw = new Array[Int](cnt(n))
    val fill = cnt.clone()
    edges.foreach { case (u, v) =>
      if (u != v) { raw(fill(u)) = v; fill(u) += 1; raw(fill(v)) = u; fill(v) += 1 }
    }
    val off = new Array[Int](n + 1)
    val out = new Array[Int](raw.length)
    var k = 0
    for (u <- 0 until n) {
      java.util.Arrays.sort(raw, cnt(u), cnt(u + 1))
      off(u) = k
      var i = cnt(u)
      while (i < cnt(u + 1)) {
        if (i == cnt(u) || raw(i) != raw(i - 1)) { out(k) = raw(i); k += 1 }
        i += 1
      }
    }
    off(n) = k
    (off, java.util.Arrays.copyOf(out, k))
  }

  private def deg(v: Int): Int = offsets(v + 1) - offsets(v)

  /** |E| of the graph. */
  val m: Long = targets.length / 2L

  /** Component label of every node (the smallest node id of its component). */
  private val label: Array[Int] = {
    val lab = Array.fill(n)(-1)
    val stack = new Array[Int](n)
    for (s <- 0 until n if lab(s) == -1) {
      lab(s) = s; var top = 0; stack(0) = s
      while (top >= 0) {
        val u = stack(top); top -= 1
        var i = offsets(u)
        while (i < offsets(u + 1)) {
          val w = targets(i)
          if (lab(w) == -1) { lab(w) = s; top += 1; stack(top) = w }
          i += 1
        }
      }
    }
    lab
  }

  private val componentDm: Map[Int, Double] =
    (0 until n).groupBy(label(_)).map { case (c, nodes) => c -> dm(nodes.toSet) }

  /** DM(C) from l_C, d_C and |E| of this graph. */
  def dm(c: Set[Int]): Double = {
    var l = 0L; var d = 0L
    c.foreach { u =>
      d += deg(u)
      var i = offsets(u)
      while (i < offsets(u + 1)) { if (targets(i) > u && c(targets(i))) l += 1; i += 1 }
    }
    (l.toDouble - (d.toDouble * d) / (4.0 * m)) / c.size
  }

  private def connected(c: Set[Int]): Boolean = c.isEmpty || {
    val seen = scala.collection.mutable.BitSet(c.head)
    var stack = List(c.head)
    while (stack.nonEmpty) {
      val u = stack.head; stack = stack.tail
      var i = offsets(u)
      while (i < offsets(u + 1)) {
        val w = targets(i)
        if (c(w) && !seen(w)) { seen += w; stack = w :: stack }
        i += 1
      }
    }
    seen.size == c.size
  }

  /** The first check the answer fails, or None when it passes them all. */
  def check(ok: Boolean, queries: Seq[Int], community: Set[Int], score: Double,
            expected: Option[Set[Int]] = None): Option[String] = {
    def close(a: Double, b: Double) = math.abs(a - b) <= 1e-9 * math.max(1.0, math.abs(b))
    if (!ok) Some("ok=false")
    else if (!queries.forall(community)) Some("a query node is missing from the community")
    else if (!community.forall(v => v >= 0 && v < n)) Some("community holds an unknown node")
    else if (!connected(community)) Some("community is disconnected")
    else {
      val d = dm(community)
      val floor = componentDm(label(queries.head))
      if (!close(score, d)) Some(s"score $score != DM(C) $d")
      else if (d < floor && !close(d, floor)) Some(s"DM(C) $d < DM of the query's component $floor")
      else expected.filter(_ != community).map(e =>
        s"community (${community.size} nodes, DM $d) != reference (${e.size} nodes, DM ${dm(e)})")
    }
  }
}

object Checker {

  /** The checker must accept the known answer on the ring of 30 6-cliques
    * (the query's own clique: l=15, d=32, |E|=480) and reject broken ones.
    */
  def selfTest(): Unit = {
    val g = GraphGen.ringOfCliques(30, 6)
    val c = new Checker(g.n, g.edges.toArray)
    val q = Seq(7)
    val clique = (6 to 11).toSet
    val cliqueDm = (15 - 32.0 * 32 / (4 * 480)) / 6
    val cases = Seq(
      ("the query's 6-clique", c.check(ok = true, q, clique, cliqueDm), true),
      ("a disconnected community", c.check(ok = true, q, clique + 18, c.dm(clique + 18)), false),
      ("a community missing the query", c.check(ok = true, q, (0 to 5).toSet, c.dm((0 to 5).toSet)), false),
      ("a wrong score", c.check(ok = true, q, clique, cliqueDm + 0.01), false),
      ("DM below the component's", c.check(ok = true, q, Set(7), c.dm(Set(7))), false),
      ("ok=false", c.check(ok = false, q, clique, cliqueDm), false),
      ("a community other than the reference", c.check(ok = true, q, clique, cliqueDm, Some(clique - 10)), false))
    for ((what, verdict, accept) <- cases)
      if (verdict.isEmpty != accept)
        throw new IllegalStateException(
          s"checker self-test: ${if (accept) "rejected" else "accepted"} $what (${verdict.getOrElse("passed")})")
  }
}
