(** Aliases kept for callers of the sharded backend's old entry points.

    [--backend sharded --nodes N] runs the one forked pool,
    {!Ft_engine.Procpool}, with [N] workers.  Both names below remain
    only because the benchmark harness calls them; both are owed for
    deletion in the next change to the benchmark. *)

val map :
  nodes:int ->
  ?on_result:(int -> ('b, Ft_engine.Procpool.failure) result -> unit) ->
  ('a -> 'b) ->
  'a array ->
  ('b, Ft_engine.Procpool.failure) result array
(** [Procpool.map ~workers:nodes], without the chaos hook.
    @raise Invalid_argument if [nodes < 1]. *)

val install : unit -> unit
(** A no-op. *)
