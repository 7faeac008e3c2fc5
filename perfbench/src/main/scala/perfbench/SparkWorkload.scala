package perfbench

import java.nio.file.Path
import java.util.concurrent.atomic.AtomicLong
import org.apache.spark.ListenerBusAccess
import org.apache.spark.scheduler.{SparkListener, SparkListenerJobStart, SparkListenerTaskEnd}
import org.apache.spark.sql.{DataFrame, SparkSession}
import repro.core.{Peeler, SparkDMCS}
import repro.graph.{GraphFrames, LocalGraph}

/** `SparkDMCS.fpa` on LFR n=10k, checked against `Peeler.fpa`.
  *
  * The graph is fixed (LFR seed `GraphSeed`); the run seed draws the |Q|=1
  * queries. Each round also holds `FaultQuery`, a |Q|=2 query on which
  * SparkDMCS returns another community than Peeler.fpa (the protected
  * multi-query path is passed to `Peeler.run` as queries, and BFS parents are
  * chosen by min id instead of first found). It fails the same way on every
  * run, so it counts as failed. Other |Q|>1 queries are left out: whether
  * they diverge depends on the seed.
  */
object SparkWorkload {
  val N = 10000
  val GraphSeed = 7L
  val FaultQuery: Seq[Int] = Seq(2681, 8195)

  /** The session of `repro.jobs.Jobs.session`, with the master capped at the
    * machine's processor count and scratch files under `localDir`.
    */
  def session(localDir: Path): SparkSession = {
    val s = SparkSession.builder
      .master(s"local[${Runtime.getRuntime.availableProcessors()}]")
      .appName("perfbench")
      .config("spark.sql.shuffle.partitions", "64")
      .config("spark.sql.autoBroadcastJoinThreshold", -1)
      .config("spark.ui.enabled", "false")
      .config("spark.driver.host", "127.0.0.1")
      .config("spark.local.dir", localDir.toAbsolutePath.toString)
      .getOrCreate()
    s.sparkContext.setLogLevel("WARN")
    s
  }

  /** Counts jobs, tasks and shuffle bytes written, for traced runs. */
  private final class Counter extends SparkListener {
    val jobs = new AtomicLong; val tasks = new AtomicLong; val shuffleBytes = new AtomicLong
    override def onJobStart(e: SparkListenerJobStart): Unit = jobs.incrementAndGet()
    override def onTaskEnd(e: SparkListenerTaskEnd): Unit = {
      tasks.incrementAndGet()
      if (e.taskMetrics != null) shuffleBytes.addAndGet(e.taskMetrics.shuffleWriteMetrics.bytesWritten)
    }
    def snapshot(spark: SparkSession): (Long, Long, Long) = {
      ListenerBusAccess.drain(spark.sparkContext)
      (jobs.get, tasks.get, shuffleBytes.get)
    }
  }

  def run(seed: Long, seconds: Int, tracer: Tracer, out: Path): Outcome = {
    val spark = session(out.resolve("spark-local"))
    try Harness.run(new Dmcs(spark, seed, perRound = 2, tracer), seconds, tracer)
    finally spark.stop()
  }

  private final class Dmcs(spark: SparkSession, seed: Long, perRound: Int, tracer: Tracer) extends Workload {
    val builds = 5
    val querySpan = "sparkdmcs.fpa"
    private val counter = new Counter
    private var g: LocalGraph = _
    private var checker: Checker = _
    private var reference: Map[Seq[Int], Set[Int]] = Map.empty
    private var edges: DataFrame = _
    private var before = (0L, 0L, 0L)
    var round: IndexedSeq[Op] = IndexedSeq.empty

    def prepare(): Unit = {
      warmOnPath()
      if (tracer.on) spark.sparkContext.addSparkListener(counter)
      val input = Inputs.lfr(N, GraphSeed)
      checker = new Checker(input.n, input.edges)
      g = tracer.span("graph.build")(LocalGraph.fromEdges(input.n, input.edges))
      round = Op(FaultQuery, knownFault = true) +:
        Inputs.querySets(input, perRound - 1, qSize = 1, seed).map(Op(_))
      // JIT first, so the traced reference pass allocates like a warm engine
      tracer.paused(for (_ <- 1 to 10; op <- round) Peeler.fpa(g, op.queries))
      reference = round.map { op =>
        val r = tracer.span("peeler.fpa")(tracer.measured("peeler.fpa")(Peeler.fpa(g, op.queries)))
        LocalWorkloads.replayLayers(g, op, Answer(r.ok, r.community, r.score), nca = false, tracer)
        op.queries -> r.community
      }.toMap
    }

    def build(): Unit = edges = tracer.span("graphframes.edge_df") {
      val df = GraphFrames.edgeDF(spark, g).cache()
      df.count()
      df
    }
    def discard(): Unit = { edges.unpersist(blocking = true); edges = null }

    /** Set-up and a |Q|=2 query on the path 0-1-2 run the same plans,
      * generated code and JIT paths as the workload's queries, in fewer BFS
      * rounds.
      */
    private def warmOnPath(): Unit = {
      val t0 = System.nanoTime()
      val path = GraphFrames.edgeDF(spark, LocalGraph.fromEdges(3, Seq((0, 1), (1, 2)))).cache()
      path.count()
      SparkDMCS.fpa(spark, path, Seq(0L, 2L))
      path.unpersist(blocking = true)
      Jvm.log(f"Spark warm-up: ${(System.nanoTime() - t0) / 1e9}%.1f s")
    }
    def warmUp(): Unit = ()

    def query(op: Op): Answer = {
      if (tracer.on) before = counter.snapshot(spark)
      val r = SparkDMCS.fpa(spark, edges, op.queries.map(_.toLong))
      if (tracer.on) {
        tracer.sample("sparkdmcs.max_layer", r.maxLayer)
        tracer.sample("sparkdmcs.chosen_layer", r.chosenLayer)
      }
      Answer(r.ok, r.community.map(_.toInt), r.dm)
    }

    /** Traced runs: counts of the query just run, then the GraphFrames stages
      * that SparkDMCS.fpa runs inside, replayed on the same edges from the
      * query nodes, each as a span with its job count.
      */
    def replay(op: Op, a: Answer): Unit = {
      val (j1, t1, b1) = counter.snapshot(spark)
      tracer.sample("spark.jobs_per_query", j1 - before._1)
      tracer.sample("spark.tasks_per_query", t1 - before._2)
      tracer.sample("spark.shuffle_mb_per_query", (b1 - before._3) / 1048576.0)
      def stage[T](name: String)(body: => T): T = {
        val j0 = counter.snapshot(spark)._1
        val r = tracer.span("graphframes." + name)(body)
        tracer.sample(s"graphframes.${name}_jobs", counter.snapshot(spark)._1 - j0)
        r
      }
      val dist = stage("bfs") {
        val d = GraphFrames.bfsDist(spark, edges, op.queries.map(_.toLong)).cache(); d.count(); d
      }
      val degs = stage("degrees") { val d = GraphFrames.degrees(edges).cache(); d.count(); d }
      stage("layer_stats") {
        GraphFrames.nodeLayerStats(dist, degs)
          .join(GraphFrames.edgeLayerStats(edges, dist), Seq("dist"), "left_outer").collect()
      }
      dist.unpersist(); degs.unpersist()
      def last(m: String) = tracer.samplesOf(m).last
      tracer.sampleTime("sparkdmcs.rest_ms", last("sparkdmcs.fpa_ms") -
        last("graphframes.bfs_ms") - last("graphframes.degrees_ms") - last("graphframes.layer_stats_ms"))
    }

    def check(op: Op, a: Answer): Option[String] =
      checker.check(a.ok, op.queries, a.community, a.score, reference.get(op.queries))
  }

  /** Draws `count` |Q|=2 query sets from the workload graph (seed 1, the
    * rule of `Inputs.querySets`) and prints those on which SparkDMCS.fpa and
    * Peeler.fpa disagree.
    */
  def divergent(count: Int, out: Path): Unit = {
    val spark = session(out.resolve("spark-local"))
    try {
      val input = Inputs.lfr(N, GraphSeed)
      val g = LocalGraph.fromEdges(input.n, input.edges)
      val edges = GraphFrames.edgeDF(spark, g).cache()
      for (q <- Inputs.querySets(input, count, qSize = 2, seed = 1)) {
        val local = Peeler.fpa(g, q)
        val dist = SparkDMCS.fpa(spark, edges, q.map(_.toLong))
        val same = dist.community.map(_.toInt) == local.community
        println(f"Q=${q.mkString(",")} spark ${dist.community.size} nodes DM ${dist.dm}%.6f, " +
          f"local ${local.community.size} nodes DM ${local.score}%.6f${if (same) "" else "  DIVERGES"}")
      }
    } finally spark.stop()
  }
}
