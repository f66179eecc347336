(** Identity of the principal performing a file-system operation: which
    user, which process, on which client, and whether the process is
    running under process migration.  Every trace record carries one. *)

type t = {
  user : Dfs_trace.Ids.User.t;
  pid : Dfs_trace.Ids.Process.t;
  client : Dfs_trace.Ids.Client.t;
  migrated : bool;
}

val make :
  user:Dfs_trace.Ids.User.t ->
  pid:Dfs_trace.Ids.Process.t ->
  client:Dfs_trace.Ids.Client.t ->
  migrated:bool ->
  t
