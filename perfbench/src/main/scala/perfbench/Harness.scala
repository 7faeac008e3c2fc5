package perfbench

import scala.collection.mutable

/** One query of a round. `knownFault` marks a query on which the engine is
  * known to return a wrong community; it counts as failed, not as incorrect.
  */
final case class Op(queries: Seq[Int], knownFault: Boolean = false)

final case class Answer(ok: Boolean, community: Set[Int], score: Double)

/** What a workload gives the harness. Everything but `build` and `query` is
  * untimed.
  */
trait Workload {
  /** Set-ups per run; `setup_s` is their median. */
  def builds: Int
  /** Inputs from the seed, the checker, and anything the checks need. */
  def prepare(): Unit
  /** One set-up of the engine from the in-memory edge list (timed; the last
    * one built answers the queries).
    */
  def build(): Unit
  /** Drops the engine built last, untimed, before the next build. */
  def discard(): Unit
  def round: IndexedSeq[Op]
  /** Untimed work after set-up that brings the query path to steady state. */
  def warmUp(): Unit
  /** One query through the engine (timed). */
  def query(op: Op): Answer
  /** Traced runs only: replay the engine's layers for this query as spans. */
  def replay(op: Op, a: Answer): Unit
  /** The first check the answer fails, or None. */
  def check(op: Op, a: Answer): Option[String]
  /** Name of the span around `query`. */
  def querySpan: String
}

/** `querySpan` names the traced metric (`<querySpan>_ms`) that times the
  * same call as the untraced `query_p50_ms`.
  */
final case class Outcome(correct: Boolean, attempted: Int, failed: Int, metrics: Seq[(Metric, Double)],
                         querySpan: String)

object Harness {
  /** Prepare, set up `w.builds` times, warm up, then run whole rounds of the
    * same queries, one at a time, for `seconds`; check every answer after the
    * timed phase. At least one round runs; after that, a round is started
    * only if, as long as the last one, it ends within `seconds`.
    */
  def run(w: Workload, seconds: Int, tracer: Tracer): Outcome = {
    w.prepare()
    Jvm.log(s"prepared; ${w.round.length} queries per round")

    val buildS = (1 to w.builds).map { i =>
      if (i > 1) w.discard()
      System.gc()
      val t0 = System.nanoTime()
      w.build()
      (System.nanoTime() - t0) / 1e9
    }
    // used heap with the engine loaded, after full collections
    val heapMb = Jvm.usedHeapMb()
    Jvm.log(f"set-up: ${buildS.map(s => f"$s%.3f").mkString(" ")} s; heap $heapMb%.3f MB")

    tracer.paused(w.warmUp())

    System.gc()
    val latMs = mutable.ArrayBuffer.empty[Double]
    val answers = mutable.ArrayBuffer.empty[(Op, Answer)]
    val limit = seconds * 1000000000L
    val t0 = System.nanoTime()
    var roundNs = 0L
    do {
      val r0 = System.nanoTime()
      for (op <- w.round) {
        tracer.request = answers.length
        val s = System.nanoTime()
        val a = tracer.span(w.querySpan)(w.query(op))
        latMs += (System.nanoTime() - s) / 1e6
        answers += ((op, a))
        if (tracer.on) w.replay(op, a)
      }
      roundNs = System.nanoTime() - r0
    } while (System.nanoTime() - t0 + roundNs <= limit)
    val wallS = (System.nanoTime() - t0) / 1e9
    val perOp = w.round.indices.map(i => Stats.median(latMs.indices.filter(_ % w.round.length == i).map(latMs(_))))
    Jvm.log(f"${latMs.length} queries in $wallS%.2f s; p50 ms per query of the round: " +
      perOp.map(x => f"$x%.1f").mkString(" "))
    Jvm.log("p50 ms per round: " +
      latMs.grouped(w.round.length).map(r => f"${Stats.median(r.toSeq)}%.1f").mkString(" "))

    var failed = 0
    var correct = true
    for ((op, a) <- answers; why <- w.check(op, a)) {
      failed += 1
      if (!op.knownFault) correct = false
      Jvm.log(s"FAILED Q=${op.queries.mkString(",")}${if (op.knownFault) " (known fault)" else ""}: $why")
    }

    val metrics =
      if (!tracer.on) Seq(
        Metric.setupS -> Stats.median(buildS),
        Metric.queryP50 -> Stats.median(latMs.toSeq),
        Metric.qps -> answers.length / wallS,
        Metric.heapMb -> heapMb)
      else tracer.summary(Metric.perLayer)
    Outcome(correct, answers.length, failed, metrics, w.querySpan)
  }
}
