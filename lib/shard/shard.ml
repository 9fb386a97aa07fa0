(* Aliases over {!Ft_engine.Procpool}; see shard.mli. *)

let map ~nodes ?on_result ?kill_first_node_after f a =
  Ft_engine.Procpool.map ~workers:nodes ?on_result
    ?kill_first_worker_after:kill_first_node_after f a

let install () = ()
