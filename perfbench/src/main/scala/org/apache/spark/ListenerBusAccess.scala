package org.apache.spark

/** Lets the benchmark wait until every listener event posted so far has been
  * delivered, so job and task counts read right after an action are whole.
  * The listener bus is private to Spark, hence this package.
  */
object ListenerBusAccess {
  def drain(sc: SparkContext): Unit = sc.listenerBus.waitUntilEmpty()
}
