type t = {
  user : Dfs_trace.Ids.User.t;
  pid : Dfs_trace.Ids.Process.t;
  client : Dfs_trace.Ids.Client.t;
  migrated : bool;
}

let make ~user ~pid ~client ~migrated = { user; pid; client; migrated }
